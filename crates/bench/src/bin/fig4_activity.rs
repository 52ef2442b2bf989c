//! Fig. 4 — impact of sensor activity management on RV moving cost.
//!
//! Reproduces the paper's bar chart: total RV traveling energy for the four
//! activity-management cases {No ERC, With ERC} × {Full time, Round Robin}
//! under each of the three recharge scheduling algorithms. The paper's
//! headline: "With ERC – with RR" is cheapest everywhere and activity
//! management saves ≈16 % of traveling energy.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fig4_activity            # paper scale
//! cargo run --release -p wrsn-bench --bin fig4_activity -- --quick # smoke run
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::Table;
use wrsn_sim::ActivityConfig;

fn main() {
    let opts = ExpOptions::from_args();
    let cases: [(&str, ActivityConfig); 4] = [
        (
            "No ERC - Full time",
            ActivityConfig {
                round_robin: false,
                erp: None,
            },
        ),
        (
            "No ERC - With RR",
            ActivityConfig {
                round_robin: true,
                erp: None,
            },
        ),
        (
            "With ERC - Full time",
            ActivityConfig {
                round_robin: false,
                erp: Some(0.6),
            },
        ),
        (
            "With ERC - With RR",
            ActivityConfig {
                round_robin: true,
                erp: Some(0.6),
            },
        ),
    ];

    let mut grid = Vec::new();
    for scheduler in SchedulerKind::EVALUATED {
        for (name, activity) in cases {
            let mut cfg = opts.base_config();
            cfg.scheduler = scheduler;
            cfg.activity = activity;
            grid.push(GridPoint {
                label: format!("{scheduler}|{name}"),
                config: cfg,
            });
        }
    }
    opts.announce("fig4", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Fig. 4 — RV traveling energy (MJ) by activity management case",
        &[
            "scheduler",
            "No ERC/Full",
            "No ERC/RR",
            "ERC/Full",
            "ERC/RR",
            "saving %",
        ],
    );
    for (si, scheduler) in SchedulerKind::EVALUATED.iter().enumerate() {
        let row: Vec<f64> = (0..4)
            .map(|c| results[si * 4 + c].report.travel_energy_mj)
            .collect();
        let saving = 100.0 * (1.0 - row[3] / row[0]);
        table.row_f64(
            scheduler.label(),
            &[row[0], row[1], row[2], row[3], saving],
            3,
        );
    }
    opts.emit(&table, "fig4_activity.csv");
    println!("\npaper shape: 'With ERC - With RR' lowest in every column; management saves ≈16 %.");
}
