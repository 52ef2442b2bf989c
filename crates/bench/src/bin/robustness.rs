//! Robustness study (beyond the paper): how the JRSSAM framework holds up
//! when the §II modeling assumptions are perturbed —
//!
//! * deployment: uniform random (paper) vs. grid / hex / jittered lattices;
//! * target mobility: periodic teleport (paper) vs. continuous
//!   random-waypoint motion vs. static targets;
//! * battery self-discharge (real Ni-MH cells leak ~0.5–1 %/day);
//! * permanent hardware failures.
//!
//! All runs use the Combined-Scheme at the paper's operating point.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin robustness [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_geom::Deployment;
use wrsn_metrics::Table;
use wrsn_sim::TargetMobility;

fn main() {
    let opts = ExpOptions::from_args();
    let base = || {
        let mut cfg = opts.base_config();
        cfg.scheduler = SchedulerKind::Combined;
        cfg
    };

    let mut grid = Vec::new();
    grid.push(GridPoint {
        label: "baseline (paper model)".into(),
        config: base(),
    });

    for (name, d) in [
        ("grid deployment", Deployment::Grid),
        ("hex deployment", Deployment::Hex),
        ("jittered deployment", Deployment::Jittered),
    ] {
        let mut cfg = base();
        cfg.deployment = d;
        grid.push(GridPoint {
            label: name.into(),
            config: cfg,
        });
    }

    let mut cfg = base();
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.3 };
    grid.push(GridPoint {
        label: "waypoint targets (0.3 m/s)".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.target_mobility = TargetMobility::Static;
    grid.push(GridPoint {
        label: "static targets".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.self_discharge_per_day = 0.01;
    grid.push(GridPoint {
        label: "1%/day self-discharge".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.permanent_failures_per_day = 0.001;
    grid.push(GridPoint {
        label: "0.1%/day hardware faults".into(),
        config: cfg,
    });

    opts.announce("robustness", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Robustness — Combined-Scheme under perturbed assumptions",
        &[
            "variant",
            "travel MJ",
            "recharged MJ",
            "coverage %",
            "dead %",
            "services",
        ],
    );
    for r in &results {
        table.row_f64(
            &r.label,
            &[
                r.report.travel_energy_mj,
                r.report.recharged_mj,
                r.report.coverage_ratio_pct,
                r.report.nonfunctional_pct,
                r.report.recharge_visits as f64,
            ],
            2,
        );
    }
    opts.emit(&table, "robustness.csv");
}
