//! Extension experiment: fleet sizing. The paper fixes m = 3 RVs; a
//! deployment engineer's first question is how performance scales with the
//! fleet — including the **no-recharging baseline** (m = 0) that motivates
//! WRSNs in the first place. Sweeps the RV count under the Combined-Scheme
//! at the paper's operating point and reports the §V metrics plus each
//! fleet's charging utilization, each the mean over `--seeds N` seeds.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fleet_sizing [-- --quick]
//! ```
//!
//! Supports the shared sweep flags (`--journal`, `--resume`, `--shards`,
//! `--chaos-workers`, …) like the figure binaries.

use wrsn_bench::{run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::Table;

fn main() {
    let opts = ExpOptions::from_args();
    let fleet_sizes = [0usize, 1, 2, 3, 4, 6];
    let grid: Vec<GridPoint> = fleet_sizes
        .iter()
        .map(|&m| {
            let mut cfg = opts.base_config();
            cfg.scheduler = SchedulerKind::Combined;
            cfg.num_rvs = m;
            GridPoint {
                label: format!("fleet/m={m}"),
                config: cfg,
            }
        })
        .collect();
    opts.announce("fleet_sizing", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Fleet sizing — Combined-Scheme, Table II workload",
        &[
            "fleet",
            "travel MJ",
            "recharged MJ",
            "coverage %",
            "dead %",
            "cost m/sensor",
            "util %",
        ],
    );
    for (&m, r) in fleet_sizes.iter().zip(&results) {
        // Every seed failed: `run_sweep` has reported each one.
        if r.failed_seeds.len() as u64 == opts.seeds {
            continue;
        }
        let cost = r.report.recharging_cost_m_per_sensor;
        table.row_f64(
            &format!("{m} RVs"),
            &[
                r.report.travel_energy_mj,
                r.report.recharged_mj,
                r.report.coverage_ratio_pct,
                r.report.nonfunctional_pct,
                if cost.is_finite() { cost } else { -1.0 },
                r.rv_charging_utilization * 100.0,
            ],
            3,
        );
    }
    opts.emit(&table, "fleet_sizing.csv");
    println!("\nexpected shape: zero RVs lose the dense-duty sensors within weeks (the paper's");
    println!("motivation); returns diminish once fleet delivery capacity exceeds network drain.");
}
