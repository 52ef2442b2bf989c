//! Extension experiment: fleet sizing. The paper fixes m = 3 RVs; a
//! deployment engineer's first question is how performance scales with the
//! fleet — including the **no-recharging baseline** (m = 0) that motivates
//! WRSNs in the first place. Sweeps the RV count under the Combined-Scheme
//! at the paper's operating point and reports the §V metrics plus each
//! fleet's charging utilization.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fleet_sizing [-- --quick]
//! ```
//!
//! Supports the shared sweep flags (`--journal`, `--resume`, `--shards`,
//! `--chaos-workers`, …) like the figure binaries.

use wrsn_bench::{run_jobs, ExpOptions};
use wrsn_core::SchedulerKind;
use wrsn_metrics::Table;
use wrsn_sim::batch::JobSpec;

fn main() {
    let opts = ExpOptions::from_args();
    let fleet_sizes = [0usize, 1, 2, 3, 4, 6];
    let jobs: Vec<JobSpec> = fleet_sizes
        .iter()
        .map(|&m| {
            let mut cfg = opts.base_config();
            cfg.scheduler = SchedulerKind::Combined;
            cfg.num_rvs = m;
            JobSpec {
                label: format!("fleet/m={m}"),
                config: cfg,
                seed: 0,
            }
        })
        .collect();
    let outcomes = run_jobs(&jobs, &opts);

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
    for (&m, outcome) in fleet_sizes.iter().zip(&outcomes) {
        let out = match outcome {
            Ok(out) => out,
            Err(panic) => {
                eprintln!("m={m} failed: {}", panic.message);
                continue;
            }
        };
        let cost = out.report.recharging_cost_m_per_sensor;
        table.row_f64(
            &format!("{m} RVs"),
            &[
                out.report.travel_energy_mj,
                out.report.recharged_mj,
                out.report.coverage_ratio_pct,
                out.report.nonfunctional_pct,
                if cost.is_finite() { cost } else { -1.0 },
                out.rv_charging_utilization * 100.0,
            ],
            3,
        );
    }
    opts.emit(&table, "fleet_sizing.csv");
    println!("\nexpected shape: zero RVs lose the dense-duty sensors within weeks (the paper's");
    println!("motivation); returns diminish once fleet delivery capacity exceeds network drain.");
}
