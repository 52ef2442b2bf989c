//! Fig. 5 — trade-off between energy efficiency and network performance.
//!
//! Sweeps the Energy Request Percentage (ERP) from 0 to 1 under the greedy
//! scheduler (the paper's example) and reports RV traveling energy next to
//! the target missing rate. Paper shape: traveling energy declines with
//! ERP; the missing rate stays ≈0 until ERP ≈ 0.6 and then climbs.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fig5_tradeoff [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{erp_sweep, run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::{write_csv, Table};

fn main() {
    let opts = ExpOptions::from_args();
    let grid: Vec<GridPoint> = erp_sweep()
        .into_iter()
        .map(|k| {
            let mut cfg = opts.base_config();
            cfg.scheduler = SchedulerKind::Greedy;
            cfg.activity.round_robin = true;
            cfg.activity.erp = Some(k);
            GridPoint {
                label: format!("{k:.1}"),
                config: cfg,
            }
        })
        .collect();
    opts.announce("fig5", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Fig. 5 — greedy scheduler: traveling energy vs. target missing rate",
        &["ERP", "travel MJ", "missing %", "nonfunctional %"],
    );
    for r in &results {
        table.row_f64(
            &r.label,
            &[
                r.report.travel_energy_mj,
                r.report.missing_rate_pct,
                r.report.nonfunctional_pct,
            ],
            3,
        );
    }
    print!("{}", table.render());
    println!("\npaper shape: travel monotonically ↓ in ERP; missing ≈0 until ERP≈0.6, then ↑.");

    let path = opts.out_dir.join("fig5_tradeoff.csv");
    write_csv(&table, &path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
