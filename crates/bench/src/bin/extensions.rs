//! Extension experiment (beyond the paper): the paper's three schemes
//! against two schedulers from the wider literature —
//!
//! * **Clarke–Wright savings**, the classical capacitated-VRP construction
//!   heuristic, and
//! * a **deadline-aware** variant in the spirit of the paper's battery-
//!   deadline reference \[10\] —
//!
//! on the identical Table II workload at the paper's ERP operating point.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin extensions [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::Table;

fn main() {
    let opts = ExpOptions::from_args();
    let schedulers = [
        SchedulerKind::Greedy,
        SchedulerKind::Partition,
        SchedulerKind::Combined,
        SchedulerKind::Savings,
        SchedulerKind::Deadline,
    ];
    let grid: Vec<GridPoint> = schedulers
        .iter()
        .map(|&s| {
            let mut cfg = opts.base_config();
            cfg.scheduler = s;
            GridPoint {
                label: s.label().to_string(),
                config: cfg,
            }
        })
        .collect();
    opts.announce("extensions", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Extension — paper schemes vs. classical schedulers (K = 0.6)",
        &[
            "scheduler",
            "travel MJ",
            "recharged MJ",
            "objective MJ",
            "coverage %",
            "dead %",
        ],
    );
    for r in &results {
        table.row_f64(
            &r.label,
            &[
                r.report.travel_energy_mj,
                r.report.recharged_mj,
                r.report.objective_mj,
                r.report.coverage_ratio_pct,
                r.report.nonfunctional_pct,
            ],
            3,
        );
    }
    opts.emit(&table, "extensions.csv");
}
