//! Deterministic, crash-isolated, supervised execution of sweep jobs.
//!
//! Every experiment in the workspace — figure regeneration, ablations,
//! robustness sweeps, `wrsn sweep` — reduces to the same shape: run a
//! list of independent labeled `(config, seed)` jobs and collect the
//! outcomes *in job order*. [`run_supervised`] is that shape, built on
//! `std::thread::scope` only (no external thread-pool crates), so results
//! are byte-identical whatever the worker count or thread interleaving:
//!
//! * each job is identified by its index in the input list;
//! * workers claim indices from a shared atomic counter (dynamic load
//!   balancing — long jobs don't stall a fixed-stripe partner);
//! * outcomes land in a pre-sized slot table guarded by a [`Mutex`], so
//!   the returned `Vec` is ordered by job index, never by completion
//!   time;
//! * every attempt runs under [`std::panic::catch_unwind`], optionally
//!   under a wall-clock watchdog, with bounded retries — a 500-point sweep
//!   with one bad point reports that point as a labeled [`JobPanic`] and
//!   finishes the other 499;
//! * an optional §4d journal records every transition write-ahead, and an
//!   optional run store records every tick of every job.
//!
//! The shard fabric ([`crate::shard`]) runs each shard's slice through
//! this same function on its worker.

use crate::store::{RecordOptions, RunRecorder, StoreConfig, StoreError};
use crate::{SimConfig, SimOutcome, World};
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Number of worker threads to use for a batch of `jobs` jobs: the
/// machine's available parallelism, but never more threads than jobs and
/// always at least one.
pub(crate) fn default_workers(jobs: usize) -> NonZeroUsize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4);
    NonZeroUsize::new(hw.min(jobs).max(1)).expect("max(1) is non-zero")
}

/// One job of a batch panicked. Carries the job's index in the input
/// list and the panic payload rendered as text (the original
/// `panic!("…")` message for the common string payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job in the input list.
    pub index: usize,
    /// Human-readable grid-point label (`scheduler/K/seed`) when the job
    /// came from a labeled sweep; empty for anonymous index-only jobs.
    pub label: String,
    /// The panic payload as text.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.label.is_empty() {
            write!(f, "job {} panicked: {}", self.index, self.message)
        } else {
            write!(
                f,
                "job {} ({}) panicked: {}",
                self.index, self.label, self.message
            )
        }
    }
}

impl std::error::Error for JobPanic {}

/// Renders a panic payload as text: the `&str` / `String` payloads every
/// `panic!` and failed assertion produce come through verbatim.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates `f(0..n)` on `workers` threads and returns the results
/// ordered by index — a deterministic parallel map. Each job runs under
/// its own `catch_unwind`, and slot stores happen outside any unwinding
/// path, so the table mutex can never be poisoned; a panic in `f` is
/// re-raised with its original payload after every job has finished
/// (lowest panicking index wins).
fn par_map<T, F>(n: usize, workers: NonZeroUsize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |i| catch_unwind(AssertUnwindSafe(|| f(i)));
    let workers = workers.get().min(n);
    let results: Vec<std::thread::Result<T>> = if workers <= 1 {
        // Serial path: no threads, no locks — and the reference behaviour
        // the parallel path must reproduce exactly.
        (0..n).map(run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let value = run(i);
                    slots.lock().expect("no panic can cross this lock")[i] = Some(value);
                });
            }
        });
        slots
            .into_inner()
            .expect("no panic can cross this lock")
            .into_iter()
            .map(|slot| slot.expect("every index below n was claimed exactly once"))
            .collect()
    };
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// One labeled sweep job: a grid-point label (scheduler/K/seed style), the
/// configuration, and the seed. The label travels into [`JobPanic`]s,
/// `failed_seeds` diagnostics and the run journal.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable grid-point label, e.g. `combined/K=0.60/seed=7`.
    pub label: String,
    /// The configuration to simulate.
    pub config: SimConfig,
    /// The run's seed.
    pub seed: u64,
}

impl JobSpec {
    /// Builds one labeled job.
    pub fn new(label: impl Into<String>, config: &SimConfig, seed: u64) -> Self {
        Self {
            label: label.into(),
            config: config.clone(),
            seed,
        }
    }
}

/// Supervision policy for [`run_supervised`]: per-job wall-clock timeout,
/// bounded retries with exponential backoff, worker-count override and
/// optional run-store recording.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Per-attempt wall-clock budget. `None` disables the watchdog (the
    /// job runs inline on the worker thread).
    pub timeout: Option<Duration>,
    /// Extra attempts after the first one fails or times out.
    pub retries: u32,
    /// Base delay before a retry; doubles per consecutive retry
    /// (exponential backoff).
    pub retry_backoff: Duration,
    /// Worker-thread override (default: one per core, at most one per
    /// job).
    pub workers: Option<NonZeroUsize>,
    /// When set, every executed job is recorded into an event-sourced run
    /// store beneath `store.root`, in a per-job directory keyed by the
    /// journal's grid hash: `grid-<hash>/job-<index>-<label>/`. Jobs the
    /// journal skips as already completed are not re-recorded.
    pub store: Option<StoreConfig>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            timeout: None,
            retries: 1,
            retry_backoff: Duration::from_millis(50),
            workers: None,
            store: None,
        }
    }
}

/// One attempt's verdict inside the supervisor.
enum Attempt {
    Done(SimOutcome),
    Panicked(String),
    TimedOut,
}

/// The per-job recording target: the run directory plus recorder knobs.
type StoreTarget = (PathBuf, RecordOptions);

/// A job's world: stepped bare, or through a recorder that journals every
/// tick into the job's run-store directory.
enum JobWorld {
    Bare(World),
    Recorded(RunRecorder),
}

/// Runs one job to its end with [`World::run`]'s `while !finished { step }`
/// loop, so its outcome is bit-identical to a plain run's. With `cancel`
/// the token is checked between ticks, so a timed-out job stops at the
/// next tick boundary instead of leaking a runaway thread; `None` comes
/// back when it was cancelled. With `store` every tick is recorded; store
/// I/O errors panic, so the supervisor's `catch_unwind` turns them into a
/// labeled [`JobPanic`] like any other job failure, and a cancelled
/// recording leaves its partial log on disk for `RunRecorder::resume`.
fn run_job(
    spec: &JobSpec,
    cancel: Option<&AtomicBool>,
    store: Option<&StoreTarget>,
) -> Option<SimOutcome> {
    let in_store = |e: StoreError| -> ! {
        let dir = &store.expect("only a recorded job touches the store").0;
        panic!("run store at {}: {e}", dir.display())
    };
    let mut job = match store {
        None => JobWorld::Bare(World::new(&spec.config, spec.seed)),
        Some((dir, ropts)) => JobWorld::Recorded(
            RunRecorder::create(dir, spec.config.clone(), spec.seed, ropts.clone())
                .unwrap_or_else(|e| in_store(e)),
        ),
    };
    loop {
        let world = match &job {
            JobWorld::Bare(w) => w,
            JobWorld::Recorded(rec) => rec.world(),
        };
        if world.finished() {
            break;
        }
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return None;
        }
        match &mut job {
            JobWorld::Bare(w) => w.step(),
            JobWorld::Recorded(rec) => rec.step().unwrap_or_else(|e| in_store(e)),
        }
    }
    Some(match &mut job {
        JobWorld::Bare(w) => w.outcome(),
        JobWorld::Recorded(rec) => {
            rec.seal().unwrap_or_else(|e| in_store(e));
            rec.world().outcome()
        }
    })
}

/// Runs one attempt, with a watchdog when a timeout is configured: the job
/// runs on its own scoped thread, the supervisor waits on a channel with
/// [`mpsc::Receiver::recv_timeout`], and on expiry sets the cancel token
/// and joins the worker (which exits at its next tick check).
fn run_attempt(spec: &JobSpec, opts: &SupervisorOptions, store: Option<&StoreTarget>) -> Attempt {
    let Some(budget) = opts.timeout else {
        return match catch_unwind(AssertUnwindSafe(|| run_job(spec, None, store))) {
            Ok(out) => Attempt::Done(out.expect("an uncancelled job always finishes")),
            Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
        };
    };
    let cancel = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let verdict = std::thread::scope(|scope| {
        let cancel = &cancel;
        scope.spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| {
                run_job(spec, Some(cancel), store)
            })));
        });
        let verdict = rx.recv_timeout(budget);
        // Cancel unconditionally (a no-op for a finished worker); the
        // scope then reaps the thread, so no stray thread survives the
        // attempt.
        cancel.store(true, Ordering::Relaxed);
        verdict
    });
    match verdict {
        Ok(Ok(Some(out))) => Attempt::Done(out),
        // The worker only returns None once the token is set, i.e. after
        // the deadline — both arms are the same timeout verdict.
        Ok(Ok(None)) | Err(mpsc::RecvTimeoutError::Timeout) => Attempt::TimedOut,
        Ok(Err(payload)) => Attempt::Panicked(panic_message(payload.as_ref())),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Attempt::Panicked("worker thread died without reporting a result".to_string())
        }
    }
}

/// Supervises one job: journal-replay skip, attempt/retry loop with
/// exponential backoff, write-ahead journaling of every transition.
fn supervise_one(
    index: usize,
    spec: &JobSpec,
    opts: &SupervisorOptions,
    journal: Option<&crate::journal::Journal>,
    store: Option<&StoreTarget>,
) -> Result<SimOutcome, JobPanic> {
    if let Some(j) = journal {
        if let Some(done) = j.completed(index) {
            return Ok(done.clone());
        }
    }
    let mut last_error = String::new();
    for attempt_no in 0..=opts.retries {
        if attempt_no > 0 {
            let factor = 1u32 << (attempt_no - 1).min(16);
            std::thread::sleep(opts.retry_backoff * factor);
        }
        if let Some(j) = journal {
            j.record_start(index, spec, attempt_no);
        }
        match run_attempt(spec, opts, store) {
            Attempt::Done(out) => {
                if let Some(j) = journal {
                    j.record_done(index, &out);
                }
                return Ok(out);
            }
            Attempt::Panicked(msg) => {
                if let Some(j) = journal {
                    j.record_panic(index, attempt_no, &msg);
                }
                last_error = format!("panicked: {msg}");
            }
            Attempt::TimedOut => {
                let budget_s = opts.timeout.map(|d| d.as_secs_f64()).unwrap_or(0.0);
                if let Some(j) = journal {
                    j.record_timeout(index, attempt_no, budget_s);
                }
                last_error = format!("timed out after {budget_s} s of wall clock");
            }
        }
    }
    let message = format!("{last_error} ({} attempts)", opts.retries + 1);
    if let Some(j) = journal {
        j.record_give_up(index, &message);
    }
    Err(JobPanic {
        index,
        label: spec.label.clone(),
        message,
    })
}

/// Supervised, journaled sweep execution: every labeled job runs under the
/// watchdog/retry policy in `opts`, optionally journaled to `journal`
/// (write-ahead: started/completed/failed/timed-out records land before
/// the next state transition, so a `kill -9` can lose at most in-flight
/// work, never completed results). Jobs the journal already holds as
/// completed are **skipped** and their recorded outcomes returned
/// bit-identically.
///
/// Like the rest of the module, results come back in job order whatever
/// the worker count; a job that exhausts its attempts yields a labeled
/// [`JobPanic`] while the rest of the batch completes.
pub fn run_supervised(
    jobs: &[JobSpec],
    opts: &SupervisorOptions,
    journal: Option<&crate::journal::Journal>,
) -> Vec<Result<SimOutcome, JobPanic>> {
    let workers = opts.workers.unwrap_or_else(|| default_workers(jobs.len()));
    let targets = opts.store.as_ref().map(|sc| store_targets(sc, jobs));
    par_map(jobs.len(), workers, |i| {
        supervise_one(i, &jobs[i], opts, journal, targets.as_ref().map(|t| &t[i]))
    })
}

/// Per-job run-store directories for a sweep: keyed by the journal's grid
/// hash so re-running the same grid lands in (and overwrites) the same
/// tree, while any grid change gets a fresh one. Labels are unique within
/// a grid, so `job-<index>-<label>` never collides.
fn store_targets(sc: &StoreConfig, jobs: &[JobSpec]) -> Vec<StoreTarget> {
    let grid = crate::journal::grid_hash(jobs);
    let base = sc.root.join(format!("grid-{grid:016x}"));
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let dir = base.join(format!("job-{i:04}-{}", sanitize_label(&job.label)));
            (dir, sc.record_options(&job.label))
        })
        .collect()
}

/// A filesystem-safe rendering of a grid-point label (`combined/K=0.60`
/// → `combined-K-0.60`), capped to keep paths short.
fn sanitize_label(label: &str) -> String {
    let mut out: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    out.truncate(60);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::SchedulerKind;

    fn tiny(days: f64, scheduler: SchedulerKind) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 40;
        cfg.num_targets = 2;
        cfg.num_rvs = 1;
        cfg.field_side = 50.0;
        cfg.scheduler = scheduler;
        cfg
    }

    #[test]
    fn par_map_orders_by_index_whatever_the_worker_count() {
        for workers in [1, 2, 7] {
            let out = par_map(23, NonZeroUsize::new(workers).unwrap(), |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_input() {
        let out: Vec<u32> = par_map(0, NonZeroUsize::new(8).unwrap(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_propagates_the_lowest_panic_with_its_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(8, NonZeroUsize::new(4).unwrap(), |i| {
                if i >= 5 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .unwrap_err();
        // Lowest panicking index wins deterministically, original payload
        // intact.
        assert_eq!(panic_message(caught.as_ref()), "boom at 5");
    }

    fn labeled(jobs: &[(SimConfig, u64)]) -> Vec<JobSpec> {
        jobs.iter()
            .enumerate()
            .map(|(i, (cfg, seed))| JobSpec::new(format!("job-{i}/seed={seed}"), cfg, *seed))
            .collect()
    }

    fn on_workers(workers: Option<usize>) -> SupervisorOptions {
        SupervisorOptions {
            workers: workers.and_then(NonZeroUsize::new),
            ..SupervisorOptions::default()
        }
    }

    #[test]
    fn supervised_run_is_byte_identical_to_serial_loop() {
        // The determinism contract: a parallel sweep over N seeds produces
        // byte-identical outcomes to a serial `World::run` loop.
        let jobs: Vec<(SimConfig, u64)> = (0..6)
            .map(|s| (tiny(0.2, SchedulerKind::Greedy), s))
            .collect();
        let serial: Vec<_> = jobs
            .iter()
            .map(|(cfg, seed)| World::new(cfg, *seed).run())
            .collect();
        for workers in [None, Some(1), Some(3), Some(8)] {
            let parallel = run_supervised(&labeled(&jobs), &on_workers(workers), None);
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                let p = p.as_ref().unwrap();
                assert_eq!(p.report, s.report, "workers={workers:?}");
                assert_eq!(p.total_drained_j, s.total_drained_j);
                assert_eq!(p.total_delivered_j, s.total_delivered_j);
                assert_eq!(p.deaths, s.deaths);
                assert_eq!(p.plans, s.plans);
                assert_eq!(p.final_alive, s.final_alive);
            }
        }
    }

    #[test]
    fn supervised_run_returns_mixed_configs_in_job_order() {
        let a = tiny(0.1, SchedulerKind::Greedy);
        let b = tiny(0.1, SchedulerKind::Combined);
        let jobs = [(a.clone(), 3), (b, 3), (a.clone(), 4), (a, 5)];
        let outcomes = run_supervised(&labeled(&jobs), &on_workers(Some(2)), None);
        assert_eq!(outcomes.len(), 4);
        for (out, (cfg, seed)) in outcomes.iter().zip(&jobs) {
            let solo = World::new(cfg, *seed).run();
            assert_eq!(out.as_ref().unwrap().report, solo.report);
        }
    }

    #[test]
    fn a_panicking_job_leaves_the_other_jobs_intact() {
        // The crash-isolation contract: every other job's result survives,
        // and the bad index carries the original panic message.
        let good = tiny(0.1, SchedulerKind::Greedy);
        let mut bad = good.clone();
        bad.tick_s = f64::NAN; // rejected by SimConfig::validate
        let original = catch_unwind(|| World::new(&bad, 3)).unwrap_err();
        let original = panic_message(original.as_ref());
        assert!(original.contains("finite"), "{original}");
        let jobs: Vec<(SimConfig, u64)> = (0..10)
            .map(|i| (if i == 3 { bad.clone() } else { good.clone() }, i))
            .collect();
        for workers in [1, 4] {
            let opts = SupervisorOptions {
                retries: 0,
                ..on_workers(Some(workers))
            };
            let out = run_supervised(&labeled(&jobs), &opts, None);
            assert_eq!(out.len(), 10);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, 3);
                    assert_eq!(err.label, "job-3/seed=3");
                    assert_eq!(err.message, format!("panicked: {original} (1 attempts)"));
                } else {
                    let solo = World::new(&good, i as u64).run();
                    let r = r.as_ref().unwrap();
                    assert_eq!(r.report, solo.report, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn default_workers_is_clamped_to_jobs() {
        assert_eq!(default_workers(1).get(), 1);
        assert!(default_workers(0).get() >= 1);
        assert!(default_workers(1_000).get() >= 1);
    }

    #[test]
    fn supervised_panic_carries_the_grid_label() {
        let good = tiny(0.1, SchedulerKind::Greedy);
        let mut bad = good.clone();
        bad.tick_s = f64::NAN;
        let jobs = vec![
            JobSpec::new("greedy/seed=0", &good, 0),
            JobSpec::new("greedy/broken-point/seed=1", &bad, 1),
        ];
        let opts = SupervisorOptions {
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        };
        let out = run_supervised(&jobs, &opts, None);
        assert!(out[0].is_ok(), "good job must survive its neighbor");
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label, "greedy/broken-point/seed=1");
        assert!(err.message.contains("3 attempts"), "{}", err.message);
        let shown = err.to_string();
        assert!(shown.contains("greedy/broken-point/seed=1"), "{shown}");
    }

    #[test]
    fn timed_out_job_is_retried_then_reported_without_aborting_the_batch() {
        // The ISSUE's watchdog criterion: a job exceeding its wall-clock
        // budget is cancelled, retried, and finally reported as failed
        // while the rest of the batch completes normally.
        let quick = tiny(0.05, SchedulerKind::Greedy);
        let mut slow = SimConfig::paper_defaults(); // 500 sensors, 120 days
        slow.scheduler = SchedulerKind::Greedy;
        let jobs = vec![
            JobSpec::new("quick/seed=0", &quick, 0),
            JobSpec::new("slow/seed=0", &slow, 0),
        ];
        let opts = SupervisorOptions {
            timeout: Some(Duration::from_millis(40)),
            retries: 1,
            retry_backoff: Duration::from_millis(1),
            workers: NonZeroUsize::new(1),
            ..SupervisorOptions::default()
        };
        let out = run_supervised(&jobs, &opts, None);
        // The quick job is far below any sane wall-clock budget... but a
        // 40 ms budget on a loaded CI box may still clip it, so only the
        // slow job's verdict is asserted strictly.
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label, "slow/seed=0");
        assert!(err.message.contains("timed out"), "{}", err.message);
        assert!(err.message.contains("2 attempts"), "{}", err.message);
    }

    #[test]
    fn supervised_store_records_replayable_runs() {
        let dir = std::env::temp_dir().join(format!("wrsn-batch-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = tiny(0.05, SchedulerKind::Greedy);
        let jobs = vec![
            JobSpec::new("greedy/seed=0", &cfg, 0),
            JobSpec::new("greedy/seed=1", &cfg, 1),
        ];
        let opts = SupervisorOptions {
            store: Some(crate::store::StoreConfig {
                root: dir.clone(),
                snap_every: 17,
                trace_cap: 4096,
            }),
            ..SupervisorOptions::default()
        };
        let recorded = run_supervised(&jobs, &opts, None);
        // Recording is an observer: outcomes match an unrecorded sweep.
        let plain = run_supervised(&jobs, &SupervisorOptions::default(), None);
        for (r, p) in recorded.iter().zip(&plain) {
            assert_eq!(
                r.as_ref().unwrap().report,
                p.as_ref().unwrap().report,
                "recording must not change the run"
            );
        }
        // Both runs landed in the grid-hashed tree, sealed and replayable.
        let store = crate::store::RunStore::open(&dir).expect("open store");
        assert_eq!(store.runs().len(), 2);
        let run = store.run("greedy/seed=1").expect("labeled run");
        let end = run.end_tick().expect("sealed");
        assert!(end > 0);
        let world = run.materialize(end / 2).expect("materialize");
        assert_eq!(world.time(), (end / 2) as f64 * cfg.tick_s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_records_every_retry_attempt() {
        let dir = std::env::temp_dir().join(format!("wrsn-batch-retries-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut bad = tiny(0.05, SchedulerKind::Greedy);
        bad.tick_s = f64::NAN;
        let jobs = vec![JobSpec::new("broken/seed=0", &bad, 0)];
        let opts = SupervisorOptions {
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        };
        let journal = crate::journal::Journal::create(&dir, &jobs).expect("create");
        let out = run_supervised(&jobs, &opts, Some(&journal));
        assert!(out[0].is_err());
        drop(journal);
        let text =
            std::fs::read_to_string(dir.join(crate::journal::JOURNAL_FILE)).expect("journal");
        let starts = text
            .lines()
            .filter(|l| l.contains(r#""kind":"start""#))
            .count();
        let panics = text
            .lines()
            .filter(|l| l.contains(r#""kind":"panic""#))
            .count();
        let give_ups = text
            .lines()
            .filter(|l| l.contains(r#""kind":"give_up""#))
            .count();
        assert_eq!(starts, 3, "retries must be journaled write-ahead:\n{text}");
        assert_eq!(panics, 3, "{text}");
        assert_eq!(give_ups, 1, "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
