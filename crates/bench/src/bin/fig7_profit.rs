//! Fig. 7(a)–(b) — recharge profit of the recharging schemes across the
//! ERP sweep: (a) total energy recharged into the network, (b) the Eq. (2)
//! objective score (recharged energy minus RV traveling energy).
//!
//! Paper shapes: recharged energy declines as ERP grows (fewer, later
//! requests); the Combined-Scheme recharges the most and achieves the
//! highest objective; the Partition-Scheme overtakes greedy at large ERP.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fig7_profit [-- --quick]
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
    opts.announce("fig7", grid.len());
    let results = run_sweep(grid, &opts);

    type Panel = (
        &'static str,
        &'static str,
        fn(&wrsn_metrics::EvalReport) -> f64,
    );
    let panels: [Panel; 2] = [
        ("a", "total energy recharged (MJ)", |r| r.recharged_mj),
        ("b", "objective score, Eq. 2 (MJ)", |r| r.objective_mj),
    ];

    let mut header: Vec<String> = vec!["scheme".into()];
    header.extend(sweep.iter().map(|k| format!("K={k:.1}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    for (panel, title, metric) in panels {
        let mut table = Table::new(&format!("Fig. 7({panel}) — {title} vs. ERP"), &header_refs);
        for (si, scheduler) in SchedulerKind::EVALUATED.iter().enumerate() {
            let row: Vec<f64> = (0..sweep.len())
                .map(|ki| metric(&results[si * sweep.len() + ki].report))
                .collect();
            table.row_f64(scheduler.label(), &row, 2);
        }
        print!("{}", table.render());
        println!();
        let path = opts.out_dir.join(format!("fig7{panel}.csv"));
        write_csv(&table, &path).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    println!("paper shapes: (a) recharged ↓ in ERP, Combined highest;");
    println!("(b) Combined highest objective; Partition overtakes Greedy at large ERP.");
}
