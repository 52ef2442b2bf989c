//! The CLI subcommands.

use wrsn_core::{balanced_clusters, CoverageMap, SchedulerKind};
use wrsn_geom::{min_sensors_for_coverage, Field};
use wrsn_metrics::Table;
use wrsn_net::{CommGraph, RoutingTree};
use wrsn_sim::sweep::{flag_usage, Args, SweepOptions, SWEEP_FLAGS};
use wrsn_sim::{SimConfig, World};

/// A flag list shaped like [`SWEEP_FLAGS`]: each flag's name without its
/// leading `--`, and the placeholder its value is shown as (empty for a
/// switch).
type Flags = &'static [(&'static str, &'static str)];

/// The deployment's size.
const DEPLOY: Flags = &[("sensors", "N"), ("targets", "N"), ("field", "M")];
/// The rest of the simulation config [`config_from`] reads.
const CONFIG: Flags = &[
    ("days", "N"),
    ("rvs", "N"),
    ("scheduler", "NAME"),
    ("erp", "K"),
    ("no-rr", ""),
    ("failures", "RATE"),
];
/// The chaos engine's fault flags, described in [`usage`].
const FAULT: Flags = &[
    ("fault-rv-breakdowns", "R"),
    ("fault-rv-repair-s", "LO:HI"),
    ("fault-uplink-loss", "P"),
    ("fault-transients", "R"),
    ("fault-transient-s", "LO:HI"),
];

// Each subcommand's own flags, beside the shared lists above.
const RUN: Flags = &[
    ("seed", "S"),
    ("trace", "FILE"),
    ("record", "DIR"),
    ("snap-every", "N"),
];
const WATCH: Flags = &[
    ("seed", "S"),
    ("frames", "N"),
    ("width", "COLS"),
    ("fps", "N"),
];
const SWEEP: Flags = &[("seed", "S"), ("points", "N"), ("csv", "FILE")];
const AGENT: Flags = &[("listen", "HOST:PORT"), ("work-dir", "DIR")];
const REPLAY: Flags = &[
    ("run", "DIR"),
    ("tick", "N"),
    ("out", "FILE"),
    ("from-zero", ""),
    ("verify", ""),
    ("info", ""),
];
const QUERY: Flags = &[
    ("store", "DIR"),
    ("list", ""),
    ("coverage-below", "X"),
    ("alive-below", "N"),
    ("event", "KIND"),
    ("within", "NEEDLE:ANCHOR:K"),
    ("limit", "N"),
];
const INSPECT: Flags = &[("seed", "S"), ("sensing-range", "M"), ("comm-range", "M")];
const ANALYZE: Flags = &[("rvs", "N"), ("no-rr", ""), ("utilization", "F")];

/// A subcommand: its name, every flag it takes (`main` rejects any other
/// before dispatch) and its entry point.
pub type Command = (
    &'static str,
    &'static [Flags],
    fn(&Args) -> Result<(), String>,
);

/// Every subcommand, in usage order.
pub const COMMANDS: [Command; 9] = [
    ("run", &[DEPLOY, CONFIG, FAULT, RUN], run),
    ("watch", &[DEPLOY, CONFIG, FAULT, WATCH], watch),
    (
        "sweep",
        &[DEPLOY, CONFIG, FAULT, SWEEP, &SWEEP_FLAGS],
        sweep,
    ),
    ("agent", &[AGENT], agent),
    ("replay", &[REPLAY], replay),
    ("query", &[QUERY], query),
    ("inspect", &[DEPLOY, INSPECT], inspect),
    ("analyze", &[DEPLOY, ANALYZE], analyze),
    ("schedulers", &[], schedulers),
];

/// `wrsn NAME --flag VALUE …`, indented and wrapped at 78 columns.
pub fn synopsis((name, flags, _): &Command) -> String {
    let mut lines = vec![format!("  wrsn {name:<8}")];
    for flag in flags.iter().copied().flatten() {
        let word = flag_usage(&[*flag]);
        let line = lines.last_mut().expect("starts with the name");
        if line.len() + 1 + word.len() > 78 {
            lines.push(format!("{:15} {word}", ""));
        } else {
            *line += &format!(" {word}");
        }
    }
    lines.join("\n")
}

/// Top-level usage text: one synopsis per subcommand, from [`COMMANDS`].
pub fn usage() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(synopsis).collect();
    format!(
        "\
wrsn — joint wireless charging and sensor activity management (ICPP'15)

USAGE:
{}

Fault flags (chaos engine; every rate defaults to 0 = off):
  --fault-rv-breakdowns R   RV breakdowns per vehicle per day
  --fault-rv-repair-s LO:HI repair time range, seconds (default 7200:28800)
  --fault-uplink-loss P     release/ack loss probability in [0,1)
  --fault-transients R      transient sensor outages per sensor per day
  --fault-transient-s LO:HI outage duration range, seconds (default 300:3600)

Defaults follow the paper's Table II (500 sensors, 15 targets, 3 RVs,
200 m field, 120 days). `--scheduler` names: greedy, insertion,
partition, combined, savings, deadline.",
        synopses.join("\n")
    )
}

fn scheduler_by_name(name: &str) -> Result<SchedulerKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "greedy" => Ok(SchedulerKind::Greedy),
        "insertion" => Ok(SchedulerKind::Insertion),
        "partition" => Ok(SchedulerKind::Partition),
        "combined" => Ok(SchedulerKind::Combined),
        "savings" | "clarke-wright" | "cw" => Ok(SchedulerKind::Savings),
        "deadline" => Ok(SchedulerKind::Deadline),
        other => Err(format!(
            "unknown scheduler `{other}` (try `wrsn schedulers`)"
        )),
    }
}

fn config_from(args: &Args) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::paper_defaults();
    cfg.num_sensors = args.num("sensors", cfg.num_sensors)?;
    cfg.num_targets = args.num("targets", cfg.num_targets)?;
    cfg.num_rvs = args.num("rvs", cfg.num_rvs)?;
    cfg.field_side = args.num("field", cfg.field_side)?;
    let days: f64 = args.num("days", cfg.duration_days)?;
    cfg.duration_s = days * 86_400.0;
    cfg.duration_days = days;
    cfg.scheduler = scheduler_by_name(&args.get("scheduler", "combined"))?;
    if args.switch("no-rr")? {
        cfg.activity.round_robin = false;
    }
    if let Some(k) = args.opt("erp") {
        cfg.activity.erp = if k.eq_ignore_ascii_case("off") {
            None
        } else {
            Some(args.num("erp", 0.0)?)
        };
    }
    cfg.permanent_failures_per_day = args.num("failures", 0.0)?;
    cfg.faults.rv_breakdowns_per_day = args.num("fault-rv-breakdowns", 0.0)?;
    if let Some(r) = args.opt("fault-rv-repair-s") {
        cfg.faults.rv_repair_s = parse_range("--fault-rv-repair-s", r)?;
    }
    cfg.faults.uplink_loss = args.num("fault-uplink-loss", 0.0)?;
    cfg.faults.transients_per_day = args.num("fault-transients", 0.0)?;
    if let Some(r) = args.opt("fault-transient-s") {
        cfg.faults.transient_outage_s = parse_range("--fault-transient-s", r)?;
    }
    Ok(cfg)
}

/// Parses a `LO:HI` seconds range (a single value means `LO = HI`).
fn parse_range(flag: &str, s: &str) -> Result<(f64, f64), String> {
    let parse = |v: &str| -> Result<f64, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
    };
    let (lo, hi) = match s.split_once(':') {
        Some((lo, hi)) => (parse(lo)?, parse(hi)?),
        None => {
            let v = parse(s)?;
            (v, v)
        }
    };
    if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
        return Err(format!("{flag}: range must satisfy 0 ≤ lo ≤ hi, got `{s}`"));
    }
    Ok((lo, hi))
}

/// `wrsn run` — one simulation, report to stdout, optional trace CSV.
/// With `--record DIR` the run is journaled into an event-sourced run
/// store (`--snap-every N` tunes the snapshot-chain interval): any
/// historical tick can then be re-materialized with `wrsn replay` and the
/// history mined with `wrsn query`.
pub fn run(args: &Args) -> Result<(), String> {
    let cfg = config_from(args)?;
    let seed: u64 = args.num("seed", 0)?;
    eprintln!(
        "running {} sensors / {} targets / {} RVs on {:.0} m field for {} days ({}, seed {seed})…",
        cfg.num_sensors,
        cfg.num_targets,
        cfg.num_rvs,
        cfg.field_side,
        cfg.duration_days,
        cfg.scheduler
    );
    let trace_path = args.opt("trace").map(str::to_owned);
    let world = if let Some(dir) = args.opt("record") {
        use wrsn_sim::store::{RecordOptions, RunRecorder};
        let ropts = RecordOptions {
            snap_every: args.num("snap-every", RecordOptions::default().snap_every)?,
            ..RecordOptions::default()
        };
        let mut rec = RunRecorder::create(dir, cfg.clone(), seed, ropts)
            .map_err(|e| format!("recording into {dir}: {e}"))?;
        rec.run()
            .map_err(|e| format!("recording into {dir}: {e}"))?;
        eprintln!("recorded {} ticks into {dir}", rec.tick());
        rec.into_world()
    } else {
        let mut world = World::new(&cfg, seed);
        if trace_path.is_some() {
            world.enable_trace(1_000_000);
        }
        world.run();
        world
    };
    let out = world.outcome();
    let r = &out.report;

    println!("travel distance      : {:>12.0} m", r.travel_distance_m);
    println!("traveling energy     : {:>12.4} MJ", r.travel_energy_mj);
    println!(
        "energy recharged     : {:>12.4} MJ ({} services)",
        r.recharged_mj, r.recharge_visits
    );
    println!("objective (Eq. 2)    : {:>12.4} MJ", r.objective_mj);
    println!("coverage ratio       : {:>12.2} %", r.coverage_ratio_pct);
    println!("missing rate         : {:>12.2} %", r.missing_rate_pct);
    println!("nonfunctional        : {:>12.2} %", r.nonfunctional_pct);
    println!(
        "recharging cost      : {:>12.1} m/sensor",
        r.recharging_cost_m_per_sensor
    );
    println!("alive at end         : {:>12}", out.final_alive);
    if out.permanent_failures > 0 {
        println!("hardware failures    : {:>12}", out.permanent_failures);
    }
    if cfg.faults.any_enabled() {
        println!("RV breakdowns        : {:>12}", out.rv_breakdowns);
        println!("transient outages    : {:>12}", out.transient_faults);
        println!("uplink drops         : {:>12}", out.uplink_drops);
    }

    if let Some(path) = trace_path {
        std::fs::write(&path, world.trace().to_csv())
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        eprintln!(
            "wrote {} trace events to {path} ({} dropped by cap)",
            world.trace().events().len(),
            world.trace().dropped()
        );
    }
    Ok(())
}

/// `wrsn watch` — live ASCII view of the field while the simulation runs.
pub fn watch(args: &Args) -> Result<(), String> {
    let cfg = config_from(args)?;
    let seed: u64 = args.num("seed", 0)?;
    let frames: usize = args.num("frames", 120usize)?;
    let width: usize = args.num("width", 80usize)?;
    let fps: f64 = args.num("fps", 10.0)?;
    if fps <= 0.0 {
        return Err("--fps must be positive".into());
    }
    let mut world = World::new(&cfg, seed);
    let steps_per_frame = ((cfg.duration_s / cfg.tick_s) / frames as f64).max(1.0) as usize;
    for _ in 0..frames {
        for _ in 0..steps_per_frame {
            if world.finished() {
                break;
            }
            world.step();
        }
        // ANSI clear + home, then the frame.
        print!(
            "\x1b[2J\x1b[H{}",
            wrsn_sim::render::render_field(&world, width)
        );
        if world.finished() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(1.0 / fps));
    }
    let out = world.outcome();
    println!(
        "final: travel {:.3} MJ, recharged {:.3} MJ, coverage {:.1} %",
        out.report.travel_energy_mj, out.report.recharged_mj, out.report.coverage_ratio_pct
    );
    Ok(())
}

/// `wrsn sweep` — ERP sweep for one scheduler over `--points N` evenly
/// spaced ERP values, printed as a table and optionally written with
/// `--csv FILE`. Every sweep flag of [`SweepOptions`] applies (journal,
/// resume, supervision, shard fabric, remote agents, run store); a sharded
/// sweep needs `--journal DIR` for its fabric. However the sweep runs,
/// the table and CSV are byte-identical to an uninterrupted in-process
/// run's.
pub fn sweep(args: &Args) -> Result<(), String> {
    use wrsn_sim::batch::JobSpec;

    let base = config_from(args)?;
    let seed: u64 = args.num("seed", 0)?;
    let points: usize = args.num("points", 6)?;
    if points < 2 {
        return Err("--points must be at least 2".into());
    }
    let sweep = SweepOptions::from_flags(|name| args.opt(name))?;

    // The sweep points are independent runs: fan out over the std-only
    // batch driver. Results come back in point order whatever the worker
    // count, so the table is identical to the old serial loop's.
    let erps: Vec<f64> = (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect();
    let jobs: Vec<JobSpec> = erps
        .iter()
        .map(|&k| {
            let mut cfg = base.clone();
            cfg.activity.erp = Some(k);
            JobSpec::new(
                format!("{}/erp={k:.2}/seed={seed}", base.scheduler),
                &cfg,
                seed,
            )
        })
        .collect();

    // Crash-isolated: one bad point reports its panic and the rest of the
    // sweep still completes and prints.
    let outcomes = sweep.run(&jobs, None)?;

    let mut table = Table::new(
        &format!(
            "{} — ERP sweep, {} days, seed {seed}",
            base.scheduler, base.duration_days
        ),
        &["ERP", "travel MJ", "recharged MJ", "coverage %", "dead %"],
    );
    let mut csv = String::from("erp,travel_mj,recharged_mj,coverage_pct,nonfunctional_pct\n");
    let mut failed = 0usize;
    for (k, out) in erps.iter().zip(&outcomes) {
        match out {
            Ok(out) => {
                table.row_f64(
                    &format!("{k:.2}"),
                    &[
                        out.report.travel_energy_mj,
                        out.report.recharged_mj,
                        out.report.coverage_ratio_pct,
                        out.report.nonfunctional_pct,
                    ],
                    3,
                );
                // `{}` on f64 prints the shortest round-trip form, so a
                // resumed sweep's CSV is byte-identical to an
                // uninterrupted one's.
                csv.push_str(&format!(
                    "{k},{},{},{},{}\n",
                    out.report.travel_energy_mj,
                    out.report.recharged_mj,
                    out.report.coverage_ratio_pct,
                    out.report.nonfunctional_pct,
                ));
            }
            Err(e) => {
                failed += 1;
                eprintln!("warning: sweep point failed: {e}");
            }
        }
    }
    print!("{}", table.render());
    if failed > 0 {
        eprintln!("{failed} of {points} sweep points failed; see warnings above");
    }
    if let Some(path) = args.opt("csv") {
        std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `wrsn inspect` — deployment diagnostics without running a simulation.
pub fn inspect(args: &Args) -> Result<(), String> {
    let cfg = SimConfig::paper_defaults();
    let n: usize = args.num("sensors", cfg.num_sensors)?;
    let m: usize = args.num("targets", cfg.num_targets)?;
    let side: f64 = args.num("field", cfg.field_side)?;
    let seed: u64 = args.num("seed", 0)?;
    let sensing: f64 = args.num("sensing-range", cfg.sensing_range)?;
    let comm: f64 = args.num("comm-range", cfg.comm_range)?;

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let field = Field::new(side);
    let sensors = field.deploy_uniform(n, &mut rng);
    let targets: Vec<_> = (0..m).map(|_| field.random_point(&mut rng)).collect();

    println!("deployment: {n} sensors, {m} targets, {side:.0} m field (seed {seed})");
    println!(
        "Eq. (1) minimum sensors for full coverage: {}",
        min_sensors_for_coverage(field.area(), sensing)
    );

    // Connectivity to the base station.
    let mut nodes = vec![field.center()];
    nodes.extend_from_slice(&sensors);
    let graph = CommGraph::build(&nodes, comm);
    let tree = RoutingTree::toward(&graph, 0);
    // Every sensor generating the paper's λ: where does traffic pile up?
    let mut gen = vec![cfg.data_rate_pps; nodes.len()];
    gen[0] = 0.0;
    let stats = wrsn_net::network_stats(&tree, &gen);
    println!(
        "connectivity: {}/{n} sensors reach the base station ({} edges)",
        stats.connected,
        graph.edge_count()
    );
    println!(
        "routing: hops max {} / mean {:.1}; mean path {:.0} m",
        stats.max_hops, stats.mean_hops, stats.mean_path_m
    );
    if let Some((node, pps)) = stats.busiest_relay {
        println!(
            "bottleneck: node {} relays {:.2} pkt/s of the sink's {:.2} pkt/s",
            node - 1,
            pps,
            stats.sink_rx_pps
        );
    }

    // Coverage and clusters.
    let cov = CoverageMap::build(&sensors, &targets, sensing);
    let clusters = balanced_clusters(&cov);
    let uncovered = cov.uncovered_targets();
    println!(
        "coverage: {} of {m} targets coverable; {} uncoverable{}",
        m - uncovered.len(),
        uncovered.len(),
        if uncovered.is_empty() {
            String::new()
        } else {
            format!(" ({uncovered:?})")
        }
    );
    let sizes: Vec<usize> = clusters
        .clusters()
        .iter()
        .map(|c| c.members.len())
        .collect();
    if let Some((min, max)) = clusters.size_spread() {
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        println!(
            "clusters: {} formed, sizes min {min} / mean {mean:.1} / max {max}",
            clusters.len()
        );
    } else {
        println!("clusters: none (no coverable targets)");
    }
    Ok(())
}

/// `wrsn analyze` — closed-form deployment feasibility without simulating.
pub fn analyze(args: &Args) -> Result<(), String> {
    let cfg = config_from(args)?;
    let utilization: f64 = args.num("utilization", 0.7)?;
    let analysis = wrsn_core::DeploymentAnalysis {
        num_sensors: cfg.num_sensors,
        expected_monitors: if cfg.activity.round_robin {
            cfg.num_targets as f64
        } else {
            // Full-time activation: every member of every cluster; mean
            // cluster size = N·π·d_s²/L² sensors per target.
            cfg.num_targets as f64
                * (cfg.num_sensors as f64 * std::f64::consts::PI * cfg.sensing_range.powi(2)
                    / (cfg.field_side * cfg.field_side))
        },
        watch_duty: cfg.watch_duty,
        profile: cfg.sensor_profile,
        battery_j: cfg.battery_capacity_j,
        threshold: cfg.recharge_threshold_frac,
        rv: cfg.rv_model,
        num_rvs: cfg.num_rvs,
    };
    println!(
        "deployment: {} sensors, {} targets, {} RVs ({} activation)",
        cfg.num_sensors,
        cfg.num_targets,
        cfg.num_rvs,
        if cfg.activity.round_robin {
            "round-robin"
        } else {
            "full-time"
        }
    );
    println!(
        "network drain          : {:>8.2} W",
        analysis.network_drain_w()
    );
    println!(
        "fleet capacity         : {:>8.2} W",
        analysis.fleet_capacity_w()
    );
    println!(
        "sustainable @ {:>3.0}% util: {:>8}",
        utilization * 100.0,
        if analysis.is_sustainable(utilization) {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "threshold crossing     : {:>8.1} days (watching sensor, full → {:.0}%)",
        analysis.days_to_threshold_watching(),
        cfg.recharge_threshold_frac * 100.0
    );
    println!(
        "deadline after request : {:>8.1} days",
        analysis.days_to_die_after_threshold()
    );
    println!(
        "expected request rate  : {:>8.1} /day",
        analysis.requests_per_day()
    );
    println!(
        "top-up service time    : {:>8.1} min",
        analysis.service_time_s() / 60.0
    );
    Ok(())
}

/// `wrsn replay` — time-travel: re-materialize any historical tick of a
/// recorded run (nearest snapshot-chain link + deterministic replay).
///
/// * `--tick N` — the tick to materialize (default: the run's final tick);
/// * `--out FILE` — write the materialized `WRSNSNAP` snapshot to `FILE`;
/// * `--from-zero` — replay from the tick-0 link instead of the nearest
///   one (the full-replay reference the CI smoke job compares against);
/// * `--verify` — also run a live world from scratch to the same tick and
///   require byte-identical snapshots (the store's determinism contract);
/// * `--info` — print the run's recording summary and exit.
pub fn replay(args: &Args) -> Result<(), String> {
    use wrsn_sim::store::StoredRun;

    let dir = args.opt("run").ok_or("replay needs --run DIR")?;
    let run = StoredRun::open(dir).map_err(|e| format!("opening run {dir}: {e}"))?;
    if run.tail().is_damaged() {
        eprintln!(
            "warning: {dir} has a damaged log tail ({:?}); using the valid prefix",
            run.tail()
        );
    }
    if args.switch("info")? {
        println!("run        : {}", run.name());
        println!("seed       : {}", run.seed());
        println!("config hash: {:#018x}", run.config_hash());
        println!("tick length: {} s", run.tick_s());
        println!("last tick  : {}", run.last_tick());
        println!(
            "sealed     : {}",
            run.end_tick()
                .map_or("no".into(), |t| format!("yes (tick {t})"))
        );
        println!(
            "snapshots  : {} (every {} ticks)",
            run.snapshots().len(),
            run.snap_every()
        );
        println!("events     : {}", run.events().len());
        println!("samples    : {}", run.samples().len());
        return Ok(());
    }

    let tick: u64 = args.num("tick", run.last_tick())?;
    let world = if args.switch("from-zero")? {
        run.materialize_from_zero(tick)
    } else {
        run.materialize(tick)
    }
    .map_err(|e| format!("materializing tick {tick} of {dir}: {e}"))?;
    let snap = world.save_snapshot();
    println!(
        "tick {tick} of {}: t = {:.0} s, {} bytes of snapshot",
        run.name(),
        world.time(),
        snap.len()
    );

    if args.switch("verify")? {
        let mut live = World::new(world.config(), run.seed());
        live.enable_trace(run.trace_cap() as usize);
        for _ in 0..tick {
            live.step();
        }
        if live.save_snapshot() == snap {
            println!("verify: OK — materialized snapshot is byte-identical to a live run");
        } else {
            return Err(format!(
                "verify FAILED: tick {tick} materialized from the store differs from a live run"
            ));
        }
    }
    if let Some(path) = args.opt("out") {
        std::fs::write(path, &snap).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `wrsn query` — cross-run predicate scans over a store of recorded runs.
///
/// Exactly one predicate per invocation:
/// * `--coverage-below X` — metrics samples with coverage < `X`;
/// * `--alive-below N` — samples with fewer than `N` sensors alive;
/// * `--event KIND` — trace events of one kind (names as in the trace
///   CSV: dispatch, service, depleted, rv_broke, ...);
/// * `--within NEEDLE:ANCHOR:K` — NEEDLE events with an ANCHOR event at
///   most `K` ticks away in the same run (e.g. `rv_broke:depleted:50`);
/// * `--list` — list the store's runs instead of scanning.
pub fn query(args: &Args) -> Result<(), String> {
    use wrsn_sim::store::{EventKind, Predicate, RunStore};

    let root = args.opt("store").ok_or("query needs --store DIR")?;
    let store = RunStore::open(root).map_err(|e| format!("opening store {root}: {e}"))?;
    if store.runs().is_empty() {
        return Err(format!("no recorded runs under {root}"));
    }
    if args.switch("list")? {
        let mut table = Table::new(
            &format!("{} — {} recorded runs", root, store.runs().len()),
            &["run", "last tick", "events", "samples", "sealed"],
        );
        for run in store.runs() {
            table.row(&[
                run.name(),
                run.last_tick().to_string(),
                run.events().len().to_string(),
                run.samples().len().to_string(),
                if run.end_tick().is_some() {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
        print!("{}", table.render());
        return Ok(());
    }

    let parse_kind = |name: &str| {
        EventKind::parse(name)
            .ok_or_else(|| format!("unknown event kind `{name}` (names as in the trace CSV)"))
    };
    let mut preds = Vec::new();
    if args.opt("coverage-below").is_some() {
        preds.push(Predicate::CoverageBelow(args.num("coverage-below", 0.0)?));
    }
    if args.opt("alive-below").is_some() {
        preds.push(Predicate::AliveBelow(args.num("alive-below", 0.0)?));
    }
    if let Some(v) = args.opt("event") {
        preds.push(Predicate::Event(parse_kind(v)?));
    }
    if let Some(v) = args.opt("within") {
        let parts: Vec<&str> = v.split(':').collect();
        let [needle, anchor, k] = parts[..] else {
            return Err(format!("--within expects NEEDLE:ANCHOR:K, got `{v}`"));
        };
        preds.push(Predicate::Within {
            needle: parse_kind(needle)?,
            anchor: parse_kind(anchor)?,
            ticks: k
                .parse()
                .map_err(|_| format!("--within: cannot parse tick count `{k}`"))?,
        });
    }
    let [pred] = preds[..] else {
        return Err(
            "query needs exactly one of --coverage-below, --alive-below, --event, --within \
             (or --list)"
                .into(),
        );
    };

    let limit: usize = args.num("limit", usize::MAX)?;
    let hits = store.select(&pred, limit);
    for h in &hits {
        println!("{}\ttick {}\tt={:.0}s\t{}", h.run, h.tick, h.time_s, h.what);
    }
    println!(
        "{} hit{} across {} runs",
        hits.len(),
        if hits.len() == 1 { "" } else { "s" },
        store.runs().len()
    );
    Ok(())
}

/// `wrsn agent` — serve shard assignments for remote sweeps (DESIGN.md
/// §4i).
///
/// Binds `--listen HOST:PORT` and runs forever, accepting framed job
/// assignments from sweep coordinators (`wrsn sweep --agents ..` or any
/// fig binary's `--agents`), executing each shard under the ordinary
/// supervised runner, and streaming its journal back live. Shard state
/// lives under `--work-dir` (default: `wrsn-agent` in the system temp
/// directory), keyed by grid hash, shard and attempt, so concurrent
/// coordinators and retried assignments never collide.
pub fn agent(args: &Args) -> Result<(), String> {
    let listen = args.opt("listen").ok_or("agent needs --listen HOST:PORT")?;
    let work_dir = args
        .opt("work-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("wrsn-agent"));
    wrsn_sim::fabric::serve(listen, work_dir).map_err(|e| e.to_string())
}

/// `wrsn schedulers` — list the available scheduling policies.
pub fn schedulers(_: &Args) -> Result<(), String> {
    println!("available schedulers (--scheduler NAME):");
    println!("  greedy      Algorithm 2: max-profit single-site dispatch (paper baseline)");
    println!("  insertion   Algorithm 3: profit-insertion route for one RV");
    println!("  partition   §IV-D-1 Partition-Scheme: K-means groups, one per RV");
    println!("  combined    §IV-D-2 Combined-Scheme: global sequential insertion");
    println!("  savings     extension: Clarke-Wright savings (classic VRP baseline)");
    println!("  deadline    extension: urgency-weighted Combined-Scheme (cf. paper ref [10])");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn each_subcommand_names_each_flag_once() {
        for (name, flags, _) in &COMMANDS {
            let mut names: Vec<&str> = flags.concat().iter().map(|f| f.0).collect();
            let count = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), count, "wrsn {name} repeats a flag");
        }
    }

    #[test]
    fn usage_has_one_synopsis_per_subcommand_within_78_columns() {
        let usage = usage();
        for (name, ..) in &COMMANDS {
            let start = format!("  wrsn {name}");
            assert!(usage.lines().any(|l| l.starts_with(&start)), "{start}");
        }
        assert!(usage.lines().all(|l| l.chars().count() <= 78), "{usage}");
    }

    #[test]
    fn scheduler_names_resolve() {
        assert_eq!(
            scheduler_by_name("combined").unwrap(),
            SchedulerKind::Combined
        );
        assert_eq!(scheduler_by_name("CW").unwrap(), SchedulerKind::Savings);
        assert!(scheduler_by_name("nope").is_err());
    }

    #[test]
    fn config_overrides_apply() {
        let a = args("run --sensors 100 --days 2 --scheduler greedy --erp 0.8 --no-rr");
        let cfg = config_from(&a).unwrap();
        assert_eq!(cfg.num_sensors, 100);
        assert_eq!(cfg.duration_days, 2.0);
        assert_eq!(cfg.scheduler, SchedulerKind::Greedy);
        assert_eq!(cfg.activity.erp, Some(0.8));
        assert!(!cfg.activity.round_robin);
    }

    #[test]
    fn erp_off_disables_erc() {
        let a = args("run --erp off");
        let cfg = config_from(&a).unwrap();
        assert_eq!(cfg.activity.erp, None);
    }

    #[test]
    fn inspect_runs_on_small_deployment() {
        let a = args("inspect --sensors 50 --targets 3 --field 60");
        assert!(inspect(&a).is_ok());
    }

    #[test]
    fn analyze_reports_feasibility() {
        let a = args("analyze --sensors 500 --targets 15 --rvs 3");
        assert!(analyze(&a).is_ok());
        // Full-time activation raises expected monitors but must still run.
        let a = args("analyze --no-rr");
        assert!(analyze(&a).is_ok());
    }

    #[test]
    fn run_completes_on_tiny_world() {
        let a = args("run --sensors 40 --targets 2 --rvs 1 --field 50 --days 0.2 --seed 3");
        assert!(run(&a).is_ok());
    }

    #[test]
    fn fault_flags_configure_the_chaos_engine() {
        let a = args(
            "run --fault-rv-breakdowns 0.5 --fault-rv-repair-s 600:1200 \
             --fault-uplink-loss 0.2 --fault-transients 1.5 --fault-transient-s 300",
        );
        let cfg = config_from(&a).unwrap();
        assert_eq!(cfg.faults.rv_breakdowns_per_day, 0.5);
        assert_eq!(cfg.faults.rv_repair_s, (600.0, 1200.0));
        assert_eq!(cfg.faults.uplink_loss, 0.2);
        assert_eq!(cfg.faults.transients_per_day, 1.5);
        assert_eq!(cfg.faults.transient_outage_s, (300.0, 300.0));
        // And without the flags everything stays off.
        let plain = config_from(&args("run")).unwrap();
        assert!(!plain.faults.any_enabled());
    }

    #[test]
    fn inverted_fault_range_is_rejected() {
        let a = args("run --fault-rv-repair-s 1200:600");
        assert!(config_from(&a).is_err());
        let a = args("run --fault-transient-s nope");
        assert!(config_from(&a).is_err());
    }

    #[test]
    fn chaos_run_completes_on_tiny_world() {
        let a = args(
            "run --sensors 40 --targets 2 --rvs 1 --field 50 --days 1 --seed 3 \
             --fault-rv-breakdowns 4 --fault-rv-repair-s 600:1800 \
             --fault-uplink-loss 0.3 --fault-transients 2",
        );
        assert!(run(&a).is_ok());
    }

    #[test]
    fn sweep_rejects_single_point() {
        let a = args("sweep --points 1");
        assert!(sweep(&a).is_err());
    }

    #[test]
    fn resume_without_journal_is_rejected() {
        let a = args("sweep --resume");
        let err = sweep(&a).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
    }

    #[test]
    fn record_replay_query_round_trip() {
        let dir = std::env::temp_dir().join(format!("wrsn-cli-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let run_dir = dir.join("run0");
        // Record a tiny chaos run (faults guarantee some trace events).
        run(&args(&format!(
            "run --sensors 40 --targets 2 --rvs 1 --field 50 --days 0.2 --seed 3 \
             --fault-rv-breakdowns 6 --fault-transients 4 \
             --record {} --snap-every 50",
            run_dir.display()
        )))
        .unwrap();
        // Info, nearest-snapshot replay with in-CLI live verification, and
        // a from-zero replay writing a snapshot file.
        replay(&args(&format!("replay --run {} --info", run_dir.display()))).unwrap();
        let snap = dir.join("mid.snap");
        replay(&args(&format!(
            "replay --run {} --tick 120 --verify --out {}",
            run_dir.display(),
            snap.display()
        )))
        .unwrap();
        let zero = dir.join("mid-zero.snap");
        replay(&args(&format!(
            "replay --run {} --tick 120 --from-zero --out {}",
            run_dir.display(),
            zero.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            std::fs::read(&zero).unwrap(),
            "nearest-snapshot and from-zero materialization must agree"
        );
        // Queries: list, sample predicate, event predicate, within-join.
        let store = format!("query --store {}", dir.display());
        query(&args(&format!("{store} --list"))).unwrap();
        query(&args(&format!("{store} --coverage-below 1.01"))).unwrap();
        query(&args(&format!("{store} --event rv_broke --limit 5"))).unwrap();
        query(&args(&format!("{store} --within rv_broke:dispatch:100"))).unwrap();
        // Malformed predicates are rejected with a message, not a panic.
        assert!(query(&args(&store)).is_err());
        assert!(query(&args(&format!("{store} --event nope"))).is_err());
        assert!(query(&args(&format!("{store} --within a:b"))).is_err());
        assert!(replay(&args("replay --run /nonexistent")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_sweep_replays_to_identical_csv() {
        let dir = std::env::temp_dir().join(format!("wrsn-cli-sweep-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let base = "sweep --sensors 40 --targets 2 --rvs 1 --field 50 --days 0.1 --points 3";
        let (csv_a, csv_b) = (dir.join("a.csv"), dir.join("b.csv"));
        let jdir = dir.join("journal");

        // Uninterrupted sweep.
        sweep(&args(&format!("{base} --csv {}", csv_a.display()))).unwrap();
        // Journaled sweep, then a resume replaying every completed run.
        sweep(&args(&format!("{base} --journal {}", jdir.display()))).unwrap();
        sweep(&args(&format!(
            "{base} --journal {} --resume --csv {}",
            jdir.display(),
            csv_b.display()
        )))
        .unwrap();

        assert_eq!(
            std::fs::read(&csv_a).unwrap(),
            std::fs::read(&csv_b).unwrap(),
            "resumed sweep's CSV must be byte-identical to the uninterrupted one's"
        );
        // A drifted config must be refused on resume.
        let drifted = sweep(&args(&format!(
            "{base} --fault-uplink-loss 0.2 --journal {} --resume",
            jdir.display()
        )));
        assert!(drifted.unwrap_err().contains("drifted"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
