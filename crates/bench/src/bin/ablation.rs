//! Ablation study over the engineering choices DESIGN.md calls out —
//! pieces the paper leaves unspecified, measured so their influence on the
//! reproduced figures is explicit:
//!
//! * **dispatch batching** (60 kJ minimum batch) vs. plan-on-arrival;
//! * **Ni-MH charge-rate taper** vs. an ideal constant-power charger;
//! * **round-robin slot length** (10 min default vs. 2 min / 60 min);
//! * **ERP operating point** (the paper's K = 0.6) vs. no ERC.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin ablation [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_energy::ChargeModel;
use wrsn_metrics::Table;

fn main() {
    let opts = ExpOptions::from_args();
    let base = || {
        let mut cfg = opts.base_config();
        cfg.scheduler = SchedulerKind::Combined;
        cfg
    };

    let mut grid = Vec::new();
    grid.push(GridPoint {
        label: "baseline (all defaults)".into(),
        config: base(),
    });

    let mut cfg = base();
    cfg.min_batch_demand_j = 0.0;
    grid.push(GridPoint {
        label: "no dispatch batching".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.charge_model = ChargeModel::ideal();
    grid.push(GridPoint {
        label: "ideal charger (no taper)".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.slot_s = 120.0;
    grid.push(GridPoint {
        label: "2-minute RR slots".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.slot_s = 3_600.0;
    grid.push(GridPoint {
        label: "60-minute RR slots".into(),
        config: cfg,
    });

    let mut cfg = base();
    cfg.activity.erp = None;
    grid.push(GridPoint {
        label: "no ERC (immediate requests)".into(),
        config: cfg,
    });

    opts.announce("ablation", grid.len());
    let results = run_sweep(grid, &opts);

    let mut table = Table::new(
        "Ablation — Combined-Scheme, paper workload",
        &[
            "variant",
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
    opts.emit(&table, "ablation.csv");
}
