//! Fig. 6(a)–(d) — performance comparison of the recharging schemes across
//! the ERP sweep: (a) RV traveling energy, (b) average target coverage
//! ratio, (c) average percentage of nonfunctional sensors, (d) recharging
//! cost (travel distance per operational sensor).
//!
//! Paper shapes: greedy travels the most and the insertion-based schemes
//! the least (a, d); coverage dips and nonfunctional sensors rise as ERP
//! grows (b, c); the Combined-Scheme keeps the fewest sensors dead.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fig6_schemes [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{erp_sweep, run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::{write_csv, Table};

fn main() {
    let opts = ExpOptions::from_args();
    let sweep = erp_sweep();
    let mut grid = Vec::new();
    for &scheduler in &SchedulerKind::EVALUATED {
        for &k in &sweep {
            let mut cfg = opts.base_config();
            cfg.scheduler = scheduler;
            cfg.activity.round_robin = true;
            cfg.activity.erp = Some(k);
            grid.push(GridPoint {
                label: format!("{scheduler}|{k:.1}"),
                config: cfg,
            });
        }
    }
    opts.announce("fig6", grid.len());
    let results = run_sweep(grid, &opts);

    type Panel = (
        &'static str,
        &'static str,
        fn(&wrsn_metrics::EvalReport) -> f64,
    );
    let panels: [Panel; 4] = [
        ("a", "RV traveling energy (MJ)", |r| r.travel_energy_mj),
        ("b", "average coverage ratio (%)", |r| r.coverage_ratio_pct),
        ("c", "nonfunctional sensors (%)", |r| r.nonfunctional_pct),
        ("d", "recharging cost (m/sensor)", |r| {
            r.recharging_cost_m_per_sensor
        }),
    ];

    let mut header: Vec<String> = vec!["scheme".into()];
    header.extend(sweep.iter().map(|k| format!("K={k:.1}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    for (panel, title, metric) in panels {
        let mut table = Table::new(&format!("Fig. 6({panel}) — {title} vs. ERP"), &header_refs);
        for (si, scheduler) in SchedulerKind::EVALUATED.iter().enumerate() {
            let row: Vec<f64> = (0..sweep.len())
                .map(|ki| metric(&results[si * sweep.len() + ki].report))
                .collect();
            table.row_f64(scheduler.label(), &row, 2);
        }
        print!("{}", table.render());
        println!();
        let path = opts.out_dir.join(format!("fig6{panel}.csv"));
        write_csv(&table, &path).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    println!("paper shapes: (a,d) Greedy ≫ insertion schemes, declining in ERP;");
    println!("(b) coverage high but declining in ERP; (c) nonfunctional rising in ERP.");
}
