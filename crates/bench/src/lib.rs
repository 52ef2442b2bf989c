//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Every `fig*` binary in `src/bin/` sweeps a parameter grid of 120-day
//! simulations at the paper's Table II scale, prints the figure's series as
//! an aligned table, and writes CSV under `results/`. Runs in a sweep are
//! independent, so they fan out over worker threads via the deterministic
//! [`wrsn_sim::batch`] driver (std-only: `std::thread::scope` + a shared
//! claim counter — results come back in job order regardless of thread
//! interleaving).
//!
//! Common CLI flags (parsed by [`ExpOptions::from_args`]):
//!
//! * `--quick` — quarter-scale network and 12 simulated days, for smoke
//!   runs and CI (≈ seconds instead of minutes);
//! * `--days N` — override the simulated duration;
//! * `--seeds N` — average every grid point over `N` seeds (default 1,
//!   the paper's single-run style);
//! * `--journal DIR` — keep a write-ahead run journal in `DIR` so a
//!   killed sweep can be resumed with `--resume` (completed grid points
//!   are skipped, in-flight ones rerun);
//! * `--timeout-s S` / `--retries N` — supervise every run with a
//!   wall-clock watchdog and bounded retries; a run that exhausts its
//!   attempts lands in [`GridResult::failed_seeds`] instead of aborting
//!   the sweep;
//! * `--shards N` — run the sweep on the fault-tolerant sharded fabric
//!   (DESIGN.md §4g): the grid is split into `N` ranges, each executed by
//!   a supervised loopback worker *process* (a re-exec of the binary)
//!   whose journal is streamed into a per-shard write-ahead journal, and
//!   the per-shard journals are merged byte-stably. Crashed, hung or
//!   `kill -9`'d workers are re-queued and resume; the merged CSV is
//!   byte-identical to a single-process run's. Tune with
//!   `--shard-inflight N` (backpressure bound on live workers),
//!   `--shard-retries N`, `--lease-timeout-s S` (hung-worker detection)
//!   and `--chaos-workers P` (self-chaos: randomly kill/stall workers to
//!   exercise recovery);
//! * `--agents HOST:PORT,..` — distribute the shards over `wrsn agent`
//!   daemons instead of loopback workers (DESIGN.md §4i); implies one
//!   shard per agent when `--shards` is unset. Unreachable or refusing
//!   agents degrade to loopback workers with a warning; links that die
//!   mid-shard requeue and resume. `--chaos-net P` injects
//!   deterministic network faults (torn frames, partitions, severed
//!   agents) to exercise that path;
//! * `--store DIR` / `--store-snap-every N` — record every run into the
//!   event-sourced run store under `DIR` (per-job directories keyed by
//!   the journal's grid hash), so any historical tick can later be
//!   re-materialized with `wrsn replay` and mined with `wrsn query`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;
use wrsn_metrics::{EvalReport, Summary};
use wrsn_sim::batch::{JobPanic, JobSpec, SupervisorOptions};
use wrsn_sim::journal::Journal;
use wrsn_sim::shard::{run_sharded, ShardOptions, SWEEP_FLAGS};
use wrsn_sim::{batch, SimConfig, SimOutcome};

/// Options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Simulated days per run.
    pub days: f64,
    /// Seeds averaged per grid point.
    pub seeds: u64,
    /// Quarter-scale quick mode.
    pub quick: bool,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Directory for the write-ahead run journal (`--journal DIR`).
    pub journal_dir: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Per-attempt wall-clock timeout in seconds (`--timeout-s`).
    pub timeout_s: Option<f64>,
    /// Extra attempts after a panic or timeout (`--retries`).
    pub retries: u32,
    /// The sharded sweep fabric the fabric flags select (`--shards`,
    /// `--agents` and their tuning flags, mapped by
    /// [`ShardOptions::from_sweep_flags`]); `None` runs in-process.
    pub fabric: Option<ShardOptions>,
    /// Root directory for the event-sourced run store (`--store DIR`):
    /// every executed run is recorded for time-travel replay and cross-run
    /// queries (`wrsn replay` / `wrsn query`). `None` disables recording.
    pub store_dir: Option<PathBuf>,
    /// Snapshot-chain interval in ticks for recorded runs
    /// (`--store-snap-every N`).
    pub store_snap_every: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            days: 120.0,
            seeds: 1,
            quick: false,
            out_dir: PathBuf::from("results"),
            journal_dir: None,
            resume: false,
            timeout_s: None,
            retries: 1,
            fabric: None,
            store_dir: None,
            store_snap_every: wrsn_sim::store::RecordOptions::default().snap_every,
        }
    }
}

impl ExpOptions {
    /// Parses the figure binaries' flags from argv: `--quick`, `--days N`,
    /// `--seeds N`, `--out DIR`, `--journal DIR`, `--resume`,
    /// `--timeout-s S`, `--retries N`, `--shards N`, `--shard-inflight N`,
    /// `--shard-retries N`, `--lease-timeout-s S`, `--chaos-workers P`,
    /// `--agents HOST:PORT,..`, `--chaos-net P`, `--store DIR` and
    /// `--store-snap-every N`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// [`ExpOptions::from_args`] over explicit tokens (argv without the
    /// program name). Flag order never matters: `--quick` selects 12
    /// simulated days only when `--days` is absent.
    ///
    /// # Panics
    /// Panics with a usage message on malformed flags.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut days = None;
        let mut fabric_flags = HashMap::new();
        let mut args = tokens.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--days" => {
                    let v = args.next().expect("--days needs a value");
                    days = Some(v.parse().expect("--days must be a number"));
                }
                "--seeds" => {
                    let v = args.next().expect("--seeds needs a value");
                    opts.seeds = v.parse().expect("--seeds must be an integer");
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().expect("--out needs a value"));
                }
                "--journal" => {
                    opts.journal_dir = Some(PathBuf::from(
                        args.next().expect("--journal needs a directory"),
                    ));
                }
                "--resume" => opts.resume = true,
                "--timeout-s" => {
                    let v = args.next().expect("--timeout-s needs a value");
                    opts.timeout_s = Some(v.parse().expect("--timeout-s must be a number"));
                }
                "--retries" => {
                    let v = args.next().expect("--retries needs a value");
                    opts.retries = v.parse().expect("--retries must be an integer");
                }
                "--store" => {
                    opts.store_dir = Some(PathBuf::from(
                        args.next().expect("--store needs a directory"),
                    ));
                }
                "--store-snap-every" => {
                    let v = args.next().expect("--store-snap-every needs a value");
                    opts.store_snap_every =
                        v.parse().expect("--store-snap-every must be an integer");
                }
                flag if flag
                    .strip_prefix("--")
                    .is_some_and(|name| SWEEP_FLAGS.contains(&name)) =>
                {
                    let v = args
                        .next()
                        .unwrap_or_else(|| panic!("{flag} needs a value"));
                    fabric_flags.insert(flag[2..].to_string(), v);
                }
                other => {
                    panic!(
                        "unknown flag {other}; supported: --quick --days N --seeds N --out DIR \
                         --journal DIR --resume --timeout-s S --retries N --shards N \
                         --shard-inflight N --shard-retries N --lease-timeout-s S \
                         --chaos-workers P --agents HOST:PORT,.. --chaos-net P \
                         --store DIR --store-snap-every N"
                    )
                }
            }
        }
        opts.days = days.unwrap_or(if opts.quick { 12.0 } else { opts.days });
        opts.fabric =
            ShardOptions::from_sweep_flags(|name| fabric_flags.get(name).map(String::as_str))
                .unwrap_or_else(|e| panic!("{e}"));
        opts
    }

    /// The supervision settings these options describe (including run
    /// recording when `--store DIR` is set).
    pub fn supervisor_options(&self) -> SupervisorOptions {
        SupervisorOptions {
            timeout: self.timeout_s.map(Duration::from_secs_f64),
            retries: self.retries,
            store: self.store_dir.as_ref().map(|root| {
                let mut sc = wrsn_sim::store::StoreConfig::new(root.clone());
                sc.snap_every = self.store_snap_every.max(1);
                sc
            }),
            ..SupervisorOptions::default()
        }
    }

    /// The fabric directory a sharded sweep journals into: `--journal DIR`
    /// when given, otherwise a per-binary subdirectory of the output dir
    /// (so two fig binaries sharing `results/` never collide).
    pub fn shard_fabric_dir(&self) -> PathBuf {
        if let Some(dir) = &self.journal_dir {
            return dir.clone();
        }
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "sweep".to_string());
        self.out_dir.join(format!("shards-{exe}"))
    }

    /// The base configuration for this experiment scale.
    pub fn base_config(&self) -> SimConfig {
        let mut cfg = if self.quick {
            SimConfig::small(self.days)
        } else {
            SimConfig::paper_defaults()
        };
        if self.quick {
            cfg.min_batch_demand_j = 20e3;
        }
        cfg.duration_s = self.days * 86_400.0;
        cfg.duration_days = self.days;
        cfg
    }
}

/// A single grid point: a label and a ready-to-run configuration.
pub struct GridPoint {
    /// Row label in the output table.
    pub label: String,
    /// The configuration to simulate.
    pub config: SimConfig,
}

/// Mean report across seeds for one grid point.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The grid point's label.
    pub label: String,
    /// Mean of each metric over the seeds that completed.
    pub report: EvalReport,
    /// Standard deviation of the travel-energy metric (0 for one seed) —
    /// a cheap stability indicator for the sweep tables.
    pub travel_std_mj: f64,
    /// Seeds whose run panicked (empty on a clean sweep). The mean above
    /// covers the surviving seeds only; a point where *every* seed failed
    /// reports a zeroed mean.
    pub failed_seeds: Vec<u64>,
}

/// Expands a grid into the flat labeled job list the supervised batch
/// driver and the run journal operate on: every `(point, seed)` pair, in
/// point-major order, labeled `"{point.label}/seed={seed}"`.
pub fn grid_jobs(grid: &[GridPoint], seeds: u64) -> Vec<JobSpec> {
    grid.iter()
        .flat_map(|point| {
            (0..seeds).map(|s| JobSpec::new(format!("{}/seed={s}", point.label), &point.config, s))
        })
        .collect()
}

/// Runs every `(grid point, seed)` pair across worker threads and averages
/// per point. Order of the results matches the input grid, and — because
/// the batch driver returns outcomes in job order — every per-point seed
/// sequence is identical whatever the worker count.
///
/// The sweep is crash-isolated: a panicking run (bad parameter point) is
/// reported on stderr and in [`GridResult::failed_seeds`] while every
/// other run completes normally.
pub fn run_grid(grid: Vec<GridPoint>, seeds: u64) -> Vec<GridResult> {
    run_grid_supervised(grid, seeds, &SupervisorOptions::default(), None)
}

/// [`run_grid`] with explicit supervision: a per-attempt wall-clock
/// timeout, bounded retries, and an optional write-ahead [`Journal`]
/// (whose completed jobs are skipped and replayed bit-identically).
pub fn run_grid_supervised(
    grid: Vec<GridPoint>,
    seeds: u64,
    opts: &SupervisorOptions,
    journal: Option<&Journal>,
) -> Vec<GridResult> {
    let jobs = grid_jobs(&grid, seeds);
    let outcomes = batch::run_supervised(&jobs, opts, journal);
    aggregate_grid(grid, seeds, &outcomes)
}

/// Folds per-job outcomes (in [`grid_jobs`] order) back into per-point
/// means — the shared tail of every sweep entry point, so the in-process
/// and sharded paths produce identical tables from identical outcomes.
fn aggregate_grid(
    grid: Vec<GridPoint>,
    seeds: u64,
    outcomes: &[Result<SimOutcome, JobPanic>],
) -> Vec<GridResult> {
    grid.into_iter()
        .zip(outcomes.chunks(seeds.max(1) as usize))
        .map(|(point, chunk)| {
            let mut rs: Vec<EvalReport> = Vec::new();
            let mut failed_seeds = Vec::new();
            for (seed, outcome) in chunk.iter().enumerate() {
                match outcome {
                    Ok(o) => rs.push(o.report),
                    Err(e) => {
                        failed_seeds.push(seed as u64);
                        eprintln!(
                            "warning: grid point '{}' seed {seed} failed: {e}",
                            point.label
                        );
                    }
                }
            }
            let mean = mean_report(&rs);
            let travel: Vec<f64> = rs.iter().map(|r| r.travel_energy_mj).collect();
            let travel_std_mj = Summary::of(&travel).map(|s| s.std_dev).unwrap_or(0.0);
            GridResult {
                label: point.label,
                report: mean,
                travel_std_mj,
                failed_seeds,
            }
        })
        .collect()
}

/// The figure binaries' standard sweep entry point: honors the
/// `--journal`/`--resume`/`--timeout-s`/`--retries` flags in `opts`,
/// creating or resuming the journal as requested, and `--shards N`, which
/// moves execution onto the fault-tolerant sharded fabric (loopback
/// worker processes with per-shard journals, heartbeat supervision and
/// byte-stable merge — DESIGN.md §4g).
///
/// # Panics
/// Panics when `--resume` is set against a missing or drifted journal
/// (the journal's grid hash pins labels, seeds and configs), or when the
/// shard fabric cannot run (e.g. a drifted shard manifest).
pub fn run_sweep(grid: Vec<GridPoint>, opts: &ExpOptions) -> Vec<GridResult> {
    let jobs = grid_jobs(&grid, opts.seeds);
    let outcomes = run_jobs(&jobs, opts);
    aggregate_grid(grid, opts.seeds, &outcomes)
}

/// Runs pre-built labeled jobs under the options' execution regime:
/// sharded worker processes when `--shards N` is set, otherwise the
/// in-process supervised (and optionally journaled) batch driver. Results
/// come back in job order either way, bit-identical across regimes, so
/// callers' tables and CSVs never depend on how the sweep was executed.
///
/// In a shard *worker* process this call never returns — the worker
/// serves the one shard assignment its coordinator sends and exits before
/// any caller code after `run_jobs` (table rendering, CSV writing)
/// executes.
///
/// # Panics
/// Panics on journal/fabric errors, as [`run_sweep`] does.
pub fn run_jobs(jobs: &[JobSpec], opts: &ExpOptions) -> Vec<Result<SimOutcome, JobPanic>> {
    let sup = opts.supervisor_options();
    if let Some(fabric) = &opts.fabric {
        let dir = opts.shard_fabric_dir();
        return run_sharded(jobs, &sup, &dir, fabric, opts.resume)
            .unwrap_or_else(|e| panic!("sharded sweep in {}: {e}", dir.display()));
    }
    let journal = opts.journal_dir.as_ref().map(|dir| {
        let journal = if opts.resume {
            Journal::resume(dir, jobs)
        } else {
            Journal::create(dir, jobs)
        }
        .unwrap_or_else(|e| panic!("cannot open run journal in {}: {e}", dir.display()));
        if opts.resume {
            eprintln!(
                "resuming from {}: {} of {} runs already complete",
                journal.path().display(),
                journal.completed_count(),
                jobs.len()
            );
        }
        journal
    });
    batch::run_supervised(jobs, &sup, journal.as_ref())
}

fn mean_report(rs: &[EvalReport]) -> EvalReport {
    let n = rs.len().max(1) as f64;
    let avg = |f: fn(&EvalReport) -> f64| rs.iter().map(f).sum::<f64>() / n;
    EvalReport {
        travel_distance_m: avg(|r| r.travel_distance_m),
        travel_energy_mj: avg(|r| r.travel_energy_mj),
        recharged_mj: avg(|r| r.recharged_mj),
        objective_mj: avg(|r| r.objective_mj),
        coverage_ratio_pct: avg(|r| r.coverage_ratio_pct),
        missing_rate_pct: avg(|r| r.missing_rate_pct),
        nonfunctional_pct: avg(|r| r.nonfunctional_pct),
        recharging_cost_m_per_sensor: avg(|r| r.recharging_cost_m_per_sensor),
        recharge_visits: (rs.iter().map(|r| r.recharge_visits).sum::<u64>() as f64 / n) as u64,
    }
}

/// The ERP sweep the paper's Figs. 5–7 use on their x axes.
pub fn erp_sweep() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::SchedulerKind;

    #[test]
    fn grid_runs_in_parallel_and_keeps_order() {
        let mk = |label: &str, seed_days: f64| {
            let mut cfg = SimConfig::small(seed_days);
            cfg.num_sensors = 40;
            cfg.num_targets = 2;
            cfg.scheduler = SchedulerKind::Greedy;
            GridPoint {
                label: label.to_string(),
                config: cfg,
            }
        };
        let results = run_grid(vec![mk("a", 0.2), mk("b", 0.2)], 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "a");
        assert_eq!(results[1].label, "b");
        assert!(results[0].report.coverage_ratio_pct >= 0.0);
        assert!(results.iter().all(|r| r.failed_seeds.is_empty()));
    }

    #[test]
    fn bad_grid_point_does_not_kill_the_sweep() {
        let mut good = SimConfig::small(0.1);
        good.num_sensors = 40;
        good.num_targets = 2;
        let mut bad = good.clone();
        bad.tick_s = f64::NAN; // rejected by SimConfig::validate
        let results = run_grid(
            vec![
                GridPoint {
                    label: "good".into(),
                    config: good,
                },
                GridPoint {
                    label: "bad".into(),
                    config: bad,
                },
            ],
            2,
        );
        assert_eq!(results.len(), 2, "the sweep must finish");
        assert!(results[0].failed_seeds.is_empty());
        assert!(results[0].report.travel_distance_m >= 0.0);
        assert_eq!(results[1].failed_seeds, vec![0, 1]);
    }

    #[test]
    fn erp_sweep_covers_unit_interval() {
        let s = erp_sweep();
        assert_eq!(s.len(), 11);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[10], 1.0);
    }

    #[test]
    fn timed_out_point_lands_in_failed_seeds() {
        let mut quick = SimConfig::small(0.05);
        quick.num_sensors = 40;
        quick.num_targets = 2;
        quick.scheduler = SchedulerKind::Greedy;
        let mut slow = SimConfig::paper_defaults(); // 500 sensors, 120 days
        slow.scheduler = SchedulerKind::Greedy;
        let grid = vec![
            GridPoint {
                label: "quick".into(),
                config: quick,
            },
            GridPoint {
                label: "slow".into(),
                config: slow,
            },
        ];
        let opts = SupervisorOptions {
            timeout: Some(Duration::from_millis(40)),
            retries: 1,
            retry_backoff: Duration::from_millis(1),
            workers: std::num::NonZeroUsize::new(1),
            ..SupervisorOptions::default()
        };
        let results = run_grid_supervised(grid, 1, &opts, None);
        assert_eq!(results.len(), 2, "the sweep must finish around the timeout");
        assert_eq!(
            results[1].failed_seeds,
            vec![0],
            "the timed-out seed must be reported"
        );
    }

    #[test]
    fn journaled_sweep_resumes_with_identical_results() {
        let dir = std::env::temp_dir().join(format!("wrsn-bench-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mk = || {
            let mut cfg = SimConfig::small(0.1);
            cfg.num_sensors = 40;
            cfg.num_targets = 2;
            cfg.scheduler = SchedulerKind::Greedy;
            vec![
                GridPoint {
                    label: "a".into(),
                    config: cfg.clone(),
                },
                GridPoint {
                    label: "b".into(),
                    config: cfg,
                },
            ]
        };
        let mut opts = ExpOptions {
            seeds: 2,
            journal_dir: Some(dir.clone()),
            ..ExpOptions::default()
        };
        let first = run_sweep(mk(), &opts);
        opts.resume = true;
        let second = run_sweep(mk(), &opts); // every run replayed from the journal
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.travel_std_mj, b.travel_std_mj);
            assert!(a.failed_seeds.is_empty() && b.failed_seeds.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn parse(flags: &str) -> ExpOptions {
        ExpOptions::parse(flags.split_whitespace().map(String::from))
    }

    #[test]
    fn quick_keeps_an_explicit_day_count_in_either_order() {
        assert_eq!(parse("--days 2 --quick").days, 2.0);
        assert_eq!(parse("--quick --days 2").days, 2.0);
        assert_eq!(parse("--quick").days, 12.0);
        assert_eq!(parse("").days, 120.0);
    }

    #[test]
    fn fabric_flags_map_onto_shard_options_defaults() {
        assert!(parse("--quick").fabric.is_none());
        let defaults = ShardOptions::default();
        let fabric = parse("--shards 3").fabric.expect("sharded");
        assert_eq!(fabric.shards, 3);
        assert_eq!(fabric.retries, defaults.retries);
        assert_eq!(fabric.lease_timeout, defaults.lease_timeout);
        // `--agents` alone implies one shard per agent; the lease timeout
        // is floored.
        let fabric = parse("--agents a:1,b:2 --lease-timeout-s 0 --shard-retries 5")
            .fabric
            .expect("sharded");
        assert_eq!(fabric.shards, 2);
        assert_eq!(fabric.agents, ["a:1", "b:2"]);
        assert_eq!(fabric.retries, 5);
        assert_eq!(fabric.lease_timeout, Duration::from_millis(100));
    }

    #[test]
    fn quick_mode_shrinks_the_network() {
        let opts = ExpOptions {
            quick: true,
            days: 5.0,
            ..Default::default()
        };
        let cfg = opts.base_config();
        assert!(cfg.num_sensors < 500);
        assert_eq!(cfg.duration_days, 5.0);
    }
}
