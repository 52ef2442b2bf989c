//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Every figure binary in `src/bin/` sweeps a parameter grid of 120-day
//! simulations at the paper's Table II scale, then hands each of its
//! tables to [`ExpOptions::emit`], which prints it aligned and writes it
//! as CSV under `results/`. Runs in a sweep are independent, so they fan
//! out over worker threads via the deterministic [`wrsn_sim::batch`]
//! driver (std-only: `std::thread::scope` + a shared claim counter —
//! results come back in job order regardless of thread interleaving).
//!
//! Flags (parsed by [`ExpOptions::from_args`]): the four listed on
//! [`ExpOptions`], plus every sweep flag of [`SweepOptions`] (journal and
//! resume, watchdog and retries, shard fabric and remote agents, run
//! store), with the same meaning as in `wrsn sweep`.

use std::path::PathBuf;
use wrsn_metrics::{EvalReport, Table};
use wrsn_sim::batch::{JobPanic, JobSpec};
use wrsn_sim::shard::WORKER_ENV;
use wrsn_sim::sweep::{flag_usage, Args, SweepOptions, SWEEP_FLAGS};
use wrsn_sim::{SimConfig, SimOutcome};

/// The figure binaries' own flags, beside the [`SWEEP_FLAGS`].
const FLAGS: [(&str, &str); 4] = [("quick", ""), ("days", "N"), ("seeds", "N"), ("out", "DIR")];

/// Options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Simulated days per run (`--days N`; default 120, or 12 with
    /// `--quick`).
    pub days: f64,
    /// Seeds averaged per grid point (`--seeds N`, at least 1; default 1,
    /// the paper's single-run style).
    pub seeds: u64,
    /// Quarter-scale network (`--quick`), for smoke runs and CI.
    pub quick: bool,
    /// Output directory for CSV files (`--out DIR`; default `results`).
    pub out_dir: PathBuf,
    /// How the sweep's jobs run, from the sweep flags.
    pub sweep: SweepOptions,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self::parse([]).expect("no flags always parse")
    }
}

impl ExpOptions {
    /// Parses the figure binaries' flags from argv. On a stray token, an
    /// unknown flag or an invalid value it prints the error and the flag
    /// list, and exits with status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("flags: {} {}", flag_usage(&FLAGS), flag_usage(&SWEEP_FLAGS));
            std::process::exit(2);
        })
    }

    /// [`ExpOptions::from_args`] over explicit tokens (argv without the
    /// program name). Flag order never matters: `--quick` selects 12
    /// simulated days only when `--days` is absent.
    ///
    /// # Errors
    /// Returns a message for a stray token, an unknown flag or an invalid
    /// value.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let args = Args::parse(tokens)?;
        if let Some(tok) = &args.command {
            return Err(format!("unexpected argument `{tok}`"));
        }
        args.check(&[&FLAGS, &SWEEP_FLAGS])?;
        let quick = args.switch("quick")?;
        let seeds = args.num("seeds", 1)?;
        if seeds == 0 {
            return Err("--seeds must be at least 1".into());
        }
        Ok(Self {
            days: args.num("days", if quick { 12.0 } else { 120.0 })?,
            seeds,
            quick,
            out_dir: PathBuf::from(args.get("out", "results")),
            sweep: SweepOptions::from_flags(|name| args.opt(name))?,
        })
    }

    /// Prints the sweep's start banner (`"{name}: N runs × S seed(s), D
    /// days each…"`) to stderr. A loopback shard worker re-executes the
    /// binary with the same argv, so only the coordinator prints it.
    pub fn announce(&self, name: &str, runs: usize) {
        if std::env::var_os(WORKER_ENV).is_none() {
            eprintln!(
                "{name}: {runs} runs × {} seed(s), {} days each…",
                self.seeds, self.days
            );
        }
    }

    /// Prints `table` to stdout and writes it as CSV to `file` under the
    /// output dir, creating the dir. Every figure CSV is written here.
    ///
    /// # Panics
    /// Panics when the CSV cannot be written.
    pub fn emit(&self, table: &Table, file: &str) {
        print!("{}", table.render());
        let path = self.out_dir.join(file);
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, table.to_csv()))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
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
    /// Mean RV charging utilization over the seeds that completed
    /// ([`SimOutcome::rv_charging_utilization`]).
    pub rv_charging_utilization: f64,
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

/// The figure binaries' standard sweep entry point: runs every
/// `(grid point, seed)` pair with [`run_jobs`] and averages per point, in
/// grid order. The sweep is crash-isolated: a failed run is reported on
/// stderr and in [`GridResult::failed_seeds`] while every other run
/// completes.
///
/// # Panics
/// Panics as [`run_jobs`] does.
pub fn run_sweep(grid: Vec<GridPoint>, opts: &ExpOptions) -> Vec<GridResult> {
    let outcomes = run_jobs(&grid_jobs(&grid, opts.seeds), opts);
    grid.into_iter()
        .zip(outcomes.chunks(opts.seeds.max(1) as usize))
        .map(|(point, chunk)| {
            let mut done: Vec<&SimOutcome> = Vec::new();
            let mut failed_seeds = Vec::new();
            for (seed, outcome) in chunk.iter().enumerate() {
                match outcome {
                    Ok(o) => done.push(o),
                    Err(e) => {
                        failed_seeds.push(seed as u64);
                        eprintln!(
                            "warning: grid point '{}' seed {seed} failed: {e}",
                            point.label
                        );
                    }
                }
            }
            GridResult {
                label: point.label,
                report: mean_report(&done),
                rv_charging_utilization: mean(&done, |o| o.rv_charging_utilization),
                failed_seeds,
            }
        })
        .collect()
}

/// Runs pre-built labeled jobs with [`SweepOptions::run`]. A sharded
/// sweep without `--journal DIR` keeps its fabric in `shards-<binary>`
/// under the output dir, so two binaries sharing `results/` never collide.
/// Results come back in job order, bit-identical however the sweep ran,
/// so callers' tables and CSVs never depend on it.
///
/// In a shard worker process this call never returns: the worker serves
/// its one assignment and exits before any caller code after `run_jobs`
/// (table rendering, CSV writing) executes.
///
/// # Panics
/// Panics when the journal cannot be opened or resumed (missing, or
/// written for a different grid), or when the shard fabric cannot run.
pub fn run_jobs(jobs: &[JobSpec], opts: &ExpOptions) -> Vec<Result<SimOutcome, JobPanic>> {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "sweep".to_string());
    let fabric_dir = opts.out_dir.join(format!("shards-{exe}"));
    opts.sweep
        .run(jobs, Some(&fabric_dir))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Mean of `f` over `outcomes`, 0 when there are none.
fn mean(outcomes: &[&SimOutcome], f: impl Fn(&SimOutcome) -> f64) -> f64 {
    outcomes.iter().map(|&o| f(o)).sum::<f64>() / outcomes.len().max(1) as f64
}

fn mean_report(outcomes: &[&SimOutcome]) -> EvalReport {
    let avg = |f: fn(&EvalReport) -> f64| mean(outcomes, |o| f(&o.report));
    EvalReport {
        travel_distance_m: avg(|r| r.travel_distance_m),
        travel_energy_mj: avg(|r| r.travel_energy_mj),
        recharged_mj: avg(|r| r.recharged_mj),
        objective_mj: avg(|r| r.objective_mj),
        coverage_ratio_pct: avg(|r| r.coverage_ratio_pct),
        missing_rate_pct: avg(|r| r.missing_rate_pct),
        nonfunctional_pct: avg(|r| r.nonfunctional_pct),
        recharging_cost_m_per_sensor: avg(|r| r.recharging_cost_m_per_sensor),
        recharge_visits: mean(outcomes, |o| o.report.recharge_visits as f64) as u64,
    }
}

/// The ERP sweep the paper's Figs. 5–7 use on their x axes.
pub fn erp_sweep() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wrsn_core::SchedulerKind;
    use wrsn_sim::batch::SupervisorOptions;
    use wrsn_sim::World;

    fn two_seeds() -> ExpOptions {
        ExpOptions {
            seeds: 2,
            ..ExpOptions::default()
        }
    }

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
        let results = run_sweep(vec![mk("a", 0.2), mk("b", 0.2)], &two_seeds());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "a");
        assert_eq!(results[1].label, "b");
        assert!(results[0].report.coverage_ratio_pct >= 0.0);
        assert!(results.iter().all(|r| r.failed_seeds.is_empty()));
    }

    #[test]
    fn sweep_means_every_column_over_the_seeds() {
        let mut cfg = SimConfig::small(1.0);
        cfg.num_sensors = 40;
        cfg.num_targets = 2;
        cfg.initial_soc = (0.2, 0.4); // the RVs charge within the day
        let grid = vec![GridPoint {
            label: "a".into(),
            config: cfg.clone(),
        }];
        let result = &run_sweep(grid, &two_seeds())[0];
        let runs: Vec<SimOutcome> = (0..2).map(|s| World::new(&cfg, s).run()).collect();
        let mean = |f: fn(&SimOutcome) -> f64| (f(&runs[0]) + f(&runs[1])) / 2.0;
        assert!(result.rv_charging_utilization > 0.0);
        assert_eq!(
            result.rv_charging_utilization,
            mean(|o| o.rv_charging_utilization)
        );
        assert_eq!(
            result.report.travel_energy_mj,
            mean(|o| o.report.travel_energy_mj)
        );
        assert_eq!(
            result.report.coverage_ratio_pct,
            mean(|o| o.report.coverage_ratio_pct)
        );
    }

    #[test]
    fn bad_grid_point_does_not_kill_the_sweep() {
        let mut good = SimConfig::small(0.1);
        good.num_sensors = 40;
        good.num_targets = 2;
        let mut bad = good.clone();
        bad.tick_s = f64::NAN; // rejected by SimConfig::validate
        let results = run_sweep(
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
            &two_seeds(),
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
        let mut opts = ExpOptions::default();
        opts.sweep.supervisor = SupervisorOptions {
            timeout: Some(Duration::from_millis(40)),
            retries: 1,
            retry_backoff: Duration::from_millis(1),
            workers: std::num::NonZeroUsize::new(1),
            ..SupervisorOptions::default()
        };
        let results = run_sweep(grid, &opts);
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
        let mut opts = two_seeds();
        opts.sweep.journal = Some(dir.clone());
        let first = run_sweep(mk(), &opts);
        opts.sweep.resume = true;
        let second = run_sweep(mk(), &opts); // every run replayed from the journal
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.rv_charging_utilization, b.rv_charging_utilization);
            assert!(a.failed_seeds.is_empty() && b.failed_seeds.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn parse(flags: &str) -> Result<ExpOptions, String> {
        ExpOptions::parse(flags.split_whitespace().map(String::from))
    }

    #[test]
    fn quick_keeps_an_explicit_day_count_in_either_order() {
        let days = |flags| parse(flags).unwrap().days;
        assert_eq!(days("--days 2 --quick"), 2.0);
        assert_eq!(days("--quick --days 2"), 2.0);
        assert_eq!(days("--quick"), 12.0);
        assert_eq!(days(""), 120.0);
    }

    #[test]
    fn unknown_flags_and_stray_tokens_are_rejected() {
        assert_eq!(
            parse("--quick --bogus 3").unwrap_err(),
            "unknown flag --bogus"
        );
        assert_eq!(
            parse("extra --quick").unwrap_err(),
            "unexpected argument `extra`"
        );
        assert_eq!(
            parse("--quick extra").unwrap_err(),
            "--quick takes no value, got `extra`"
        );
        assert!(parse("--seeds two").unwrap_err().starts_with("--seeds: "));
        // Zero seeds would run nothing and average over no runs.
        assert_eq!(
            parse("--seeds 0").unwrap_err(),
            "--seeds must be at least 1"
        );
    }

    #[test]
    fn timeout_zero_disables_the_watchdog_as_in_wrsn_sweep() {
        let timeout = |flags| parse(flags).unwrap().sweep.supervisor.timeout;
        assert_eq!(timeout("--quick --timeout-s 0"), None);
        assert_eq!(
            timeout("--quick --timeout-s 5"),
            Some(Duration::from_secs(5))
        );
        assert_eq!(timeout("--quick"), None);
    }

    #[test]
    fn a_negative_timeout_is_a_labelled_error_not_a_panic() {
        let err = parse("--quick --timeout-s -1").unwrap_err();
        assert!(
            err.starts_with("--timeout-s: `-1` is not a valid number of seconds"),
            "{err}"
        );
    }

    #[test]
    fn resume_needs_a_journal_unless_sharded() {
        assert_eq!(
            parse("--quick --resume").unwrap_err(),
            "--resume needs --journal DIR"
        );
        // Sharded, the default `out/shards-<exe>` fabric dir is resumed.
        let opts = parse("--quick --resume --shards 2").unwrap();
        assert!(opts.sweep.resume && opts.sweep.fabric.is_some());
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
