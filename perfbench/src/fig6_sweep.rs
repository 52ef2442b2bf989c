//! `fig6-sweep`: the `fig6_schemes` grid — Greedy / Partition-Scheme /
//! Combined-Scheme × ERP K = 0.0 … 1.0, 33 Table II runs of 20 days —
//! through `shard::run_sharded` with two local shard workers and their
//! journals. Each grid point's world seed is drawn from the workload seed,
//! so one sweep already averages over 33 deployments.
//!
//! Closed loop: the next sweep is submitted when the previous one merged,
//! until the time budget is spent. Every sweep must be bitwise equal to an
//! in-process `batch::run_supervised` twin of the same grid.

use crate::calib::{self, Calibrator};
use crate::engine_probe::{EngineProbe, PROBE_TRACE_CAP};
use crate::report::Report;
use crate::spans::{SpanId, Spans};
use crate::stats::Summary;
use crate::sub_seed;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wrsn_core::SchedulerKind;
use wrsn_sim::batch::{run_supervised, JobPanic, JobSpec, SupervisorOptions};
use wrsn_sim::journal::JOURNAL_FILE;
use wrsn_sim::shard::{run_sharded, shard_dir, shard_ranges, ShardOptions};
use wrsn_sim::{SimOutcome, World};

const DAYS: f64 = 20.0;
/// Local shard workers, and threads of the in-process twin.
const WORKERS: usize = 2;

/// The grid, in `fig6_schemes` order.
fn jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for scheduler in SchedulerKind::EVALUATED {
        for tenth in 0..=10 {
            let k = f64::from(tenth) / 10.0;
            let mut cfg = wrsn_sim::SimConfig::paper_defaults();
            cfg.duration_s = DAYS * 86_400.0;
            cfg.duration_days = DAYS;
            cfg.scheduler = scheduler;
            cfg.activity.round_robin = true;
            cfg.activity.erp = Some(k);
            let world_seed = sub_seed(seed, jobs.len() as u64);
            jobs.push(JobSpec::new(
                format!("{scheduler}|{k:.1}"),
                &cfg,
                world_seed,
            ));
        }
    }
    jobs
}

fn supervisor() -> SupervisorOptions {
    SupervisorOptions {
        workers: NonZeroUsize::new(WORKERS),
        ..SupervisorOptions::default()
    }
}

/// A worker heartbeats every lease timeout ÷ 5 (at most 1 s) and exits
/// only at its next heartbeat after its last job. With the default 30 s
/// lease that wait is up to a whole second, which made single makespans
/// jump between two values a second apart; a 1 s lease (what
/// `--lease-timeout-s 1` selects) shrinks the wait to at most 200 ms.
fn shard_options() -> ShardOptions {
    ShardOptions {
        shards: WORKERS,
        lease_timeout: Duration::from_secs(1),
        ..ShardOptions::default()
    }
}

/// Body of a shard worker process. The coordinator re-executes this binary
/// with the same arguments, so the worker rebuilds the same grid and runs
/// its shard range; `run_sharded` exits the process when it is done.
pub fn shard_worker(seed: u64) -> ! {
    let _ = run_sharded(&jobs(seed), &supervisor(), "", &shard_options(), false);
    unreachable!("run_sharded never returns in a shard worker")
}

type Outcomes = Vec<Result<SimOutcome, JobPanic>>;

/// One sharded sweep into a fresh fabric directory; returns the merged
/// outcomes and the makespan.
fn sharded(jobs: &[JobSpec], dir: &Path) -> Result<(Outcomes, f64), String> {
    let t = Instant::now();
    let out = run_sharded(jobs, &supervisor(), dir, &shard_options(), false)
        .map_err(|e| format!("sharded sweep in {}: {e}", dir.display()))?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// Tallies one check per job: merged outcome present and bitwise equal to
/// the in-process twin's (`Debug` prints every f64 exactly).
fn check_against(r: &mut Report, sweep: usize, got: &Outcomes, twin: &Outcomes) {
    for (j, (g, t)) in got.iter().zip(twin).enumerate() {
        let same = match (g, t) {
            (Ok(g), Ok(t)) => format!("{g:?}") == format!("{t:?}"),
            _ => false,
        };
        r.check(same, || {
            format!("sweep {sweep} job {j}: {g:?} vs in-process {t:?}")
        });
    }
    if got.len() != twin.len() {
        r.check(false, || {
            format!(
                "sweep {sweep}: {} outcomes for {} jobs",
                got.len(),
                twin.len()
            )
        });
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration, work: &Path) -> Result<Report, String> {
    let dir = work.join(format!("fig6-{}", std::process::id()));
    let mut r = Report::default();
    let mut cal = Calibrator::new();
    let (mut setup_s, mut makespan_s, mut raw_s, mut factors) = (vec![], vec![], vec![], vec![]);
    let mut sweeps = Vec::new();
    let started = Instant::now();
    let mut jobs = Vec::new();
    while sweeps.is_empty() || started.elapsed() < budget {
        let f = cal.factor();
        let t = Instant::now();
        jobs = self::jobs(seed);
        fresh_dir(&dir)?;
        setup_s.push(t.elapsed().as_secs_f64() * f);
        // The work runs in the shard workers, so the machine's speed is
        // sampled from a thread beside them for the whole sweep.
        let (result, k) = calib::during(|| sharded(&jobs, &dir));
        let (out, s) = result?;
        makespan_s.push(s * k);
        raw_s.push(s);
        factors.push(k);
        sweeps.push(out);
        if sweeps.len() == 1 {
            r.peak_rss_after_first_op("first sweep")?;
        }
    }
    let twin = run_supervised(&jobs, &supervisor(), None);
    for (i, out) in sweeps.iter().enumerate() {
        check_against(&mut r, i, out, &twin);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Throughput pools every sweep, which averages the workers' heartbeat
    // exit waits instead of picking one.
    let runs = (jobs.len() * sweeps.len()) as f64;
    let runs_per_s: Vec<f64> = makespan_s.iter().map(|s| jobs.len() as f64 / s).collect();
    let pooled = runs / makespan_s.iter().sum::<f64>();
    let makespan_ms: Vec<f64> = makespan_s.iter().map(|s| s * 1e3).collect();
    let m = Summary::of(&makespan_ms);
    r.e2e_median("setup_s", "sweep_setup_s", "sweeps", &setup_s);
    r.e2e_value(
        "throughput_per_s",
        "sweep_runs_per_s",
        "sweeps",
        pooled,
        Summary::of(&runs_per_s),
    );
    r.e2e_median(
        "latency_p50_ms",
        "sweep_makespan_p50_ms",
        "sweeps",
        &makespan_ms,
    );
    r.e2e_value(
        "latency_tail_ms",
        "sweep_makespan_max_ms",
        "sweeps",
        m.max,
        m,
    );
    r.note(format!(
        "{} sweeps of {} runs each",
        sweeps.len(),
        jobs.len()
    ));
    r.note(calib::note("sweep_makespan_s", &raw_s, &factors));
    Ok(r)
}

/// Runs `work(job index)` for every job on [`WORKERS`] threads claiming
/// jobs in order; returns each job's result with its start and end.
fn on_workers<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<(T, Instant, Instant)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= n {
                    break;
                }
                let t0 = Instant::now();
                let out = work(j);
                let t1 = Instant::now();
                done.lock()
                    .expect("no job thread panics while holding the lock")
                    .push((j, out, t0, t1));
            });
        }
    });
    let mut done = done.into_inner().expect("job threads joined");
    done.sort_by_key(|(j, ..)| *j);
    done.into_iter()
        .map(|(_, out, t0, t1)| (out, t0, t1))
        .collect()
}

/// Bytes of every journal under the fabric directory, and the shard
/// journals' `start` records (one per job attempt).
fn journal_stats(dir: &Path, shards: usize) -> (u64, u64) {
    let mut paths: Vec<PathBuf> = (0..shards)
        .map(|i| shard_dir(dir, i).join(JOURNAL_FILE))
        .collect();
    let starts = paths
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|text| text.matches("\"kind\":\"start\"").count() as u64)
        .sum();
    paths.push(dir.join(JOURNAL_FILE));
    let bytes = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    (bytes, starts)
}

/// Traced run: per iteration a sharded sweep, an in-process twin timed job
/// by job through `run_supervised`, and an engine probe over the grid.
pub fn trace(
    seed: u64,
    budget: Duration,
    work: &Path,
    spans: &mut Spans,
) -> Result<Report, String> {
    let dir = work.join(format!("fig6-{}", std::process::id()));
    let jobs = jobs(seed);
    let ranges = shard_ranges(jobs.len(), WORKERS);
    let mut r = Report::default();
    let mut probe = EngineProbe::default();
    let (mut sharded_s, mut twin_s, mut job_s) = (0.0, 0.0, Vec::new());
    let (mut journal_bytes, mut restarts, mut imbalance) = (vec![], 0u64, vec![]);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget {
        let root = spans.begin("fig6.sweep", None);
        fresh_dir(&dir)?;
        let span = spans.begin("shard.run_sharded", Some(root));
        let (out, s) = sharded(&jobs, &dir)?;
        spans.end(span);
        sharded_s += s;
        let (bytes, starts) = journal_stats(&dir, ranges.len());
        journal_bytes.push(bytes as f64);
        restarts += starts.saturating_sub(jobs.len() as u64);

        let twin_span = spans.begin("batch.twin", Some(root));
        let t = Instant::now();
        let one = SupervisorOptions {
            workers: NonZeroUsize::new(1),
            ..SupervisorOptions::default()
        };
        let twin = on_workers(jobs.len(), |j| {
            run_supervised(&jobs[j..=j], &one, None).remove(0)
        });
        twin_s += t.elapsed().as_secs_f64();
        spans.end(twin_span);
        let this_job_s: Vec<f64> = twin
            .iter()
            .map(|(_, a, b)| (*b - *a).as_secs_f64())
            .collect();
        for (_, a, b) in &twin {
            spans.record("batch.job", Some(twin_span), *a, *b);
        }
        let per_shard: Vec<f64> = ranges
            .iter()
            .map(|&(lo, hi)| this_job_s[lo..hi].iter().sum())
            .collect();
        let mean_shard = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        imbalance.push(per_shard.iter().cloned().fold(0.0, f64::max) / mean_shard - 1.0);
        job_s.extend(this_job_s);
        let twin: Outcomes = twin.into_iter().map(|(o, ..)| o).collect();
        check_against(&mut r, i, &out, &twin);

        let span = spans.begin("engine.probe", Some(root));
        let probed = on_workers(jobs.len(), |j| {
            let mut world = World::new(&jobs[j].config, jobs[j].seed);
            world.enable_trace(PROBE_TRACE_CAP);
            let mut p = EngineProbe::default();
            p.run(&mut world);
            (p, format!("{:?}", world.outcome()))
        });
        spans.end(span);
        record_probe(spans, span, &mut probe, &mut r, probed, &twin, i);
        spans.end(root);
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    probe.report(&mut r);
    let job = Summary::of(&job_s);
    r.layer("batch.job_s_p50", job.median);
    r.layer("batch.job_s_max", job.max);
    r.layer(
        "batch.parallel_efficiency",
        job_s.iter().sum::<f64>() / (WORKERS as f64 * twin_s),
    );
    r.layer("fabric.overhead_frac", sharded_s / twin_s - 1.0);
    r.layer("fabric.shard_imbalance", Summary::of(&imbalance).median);
    r.layer("fabric.attempts_failed", restarts as f64);
    r.layer("journal.bytes", Summary::of(&journal_bytes).median);
    // The probe steps the same grid the twin ran, so its extra time over
    // the twin is the cost of tracing.
    r.layer(
        "trace.overhead_frac",
        probe.wall_s / job_s.iter().sum::<f64>() - 1.0,
    );
    r.note(format!(
        "{i} sweep(s): sharded {sharded_s:.3} s vs in-process {twin_s:.3} s; \
         shard imbalance from in-process job times over ranges {ranges:?}"
    ));
    Ok(r)
}

/// Folds the per-job engine probes into `probe`, records their plan-tick
/// spans, and checks each probed world reproduced the twin's outcome.
fn record_probe(
    spans: &mut Spans,
    parent: SpanId,
    probe: &mut EngineProbe,
    r: &mut Report,
    probed: Vec<((EngineProbe, String), Instant, Instant)>,
    twin: &Outcomes,
    sweep: usize,
) {
    for (j, ((p, outcome), a, b)) in probed.into_iter().enumerate() {
        let job = spans.len();
        spans.record("engine.probe_job", Some(parent), a, b);
        for &(s, e) in &p.plan_ticks {
            spans.record("scheduling.plan_tick", Some(job), s, e);
        }
        let same = matches!(&twin[j], Ok(t) if format!("{t:?}") == outcome);
        r.check(same, || {
            format!("sweep {sweep} job {j}: probed outcome differs from the twin")
        });
        probe.merge(p);
    }
}
