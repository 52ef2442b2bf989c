//! Figs. 5–7 — one ERP sweep (K = 0, 0.1, …, 1) over the three recharging
//! schemes, rendered as all three figures:
//!
//! * Fig. 5 (`fig5_tradeoff.csv`) — the greedy scheduler's RV traveling
//!   energy next to its target missing rate. Paper shape: travel declines
//!   with ERP; the missing rate stays ≈0 until ERP ≈ 0.6, then climbs.
//! * Fig. 6(a)–(d) (`fig6a.csv`…) — RV traveling energy, average target
//!   coverage ratio, nonfunctional sensors (%) and recharging cost (travel
//!   distance per operational sensor). Paper shapes: greedy travels the
//!   most (a, d); coverage dips and dead sensors rise with ERP (b, c).
//! * Fig. 7(a)–(b) (`fig7a.csv`, `fig7b.csv`) — total energy recharged and
//!   the Eq. (2) objective (recharged minus traveling energy). Paper
//!   shapes: recharged energy declines with ERP; Combined recharges the
//!   most and scores highest; Partition overtakes greedy at large ERP.
//!
//! ```sh
//! cargo run --release -p wrsn-bench --bin fig6_schemes [-- --quick]
//! ```
//!
//! Scales onto the fault-tolerant sharded sweep fabric with `--shards N`
//! (plus `--journal`, `--resume`, `--chaos-workers`; DESIGN.md §4g).

use wrsn_bench::{erp_sweep, run_sweep, ExpOptions, GridPoint};
use wrsn_core::SchedulerKind;
use wrsn_metrics::{EvalReport, Table};

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
    // One row of ERP points per scheduler, in `EVALUATED` order.
    let rows: Vec<_> = SchedulerKind::EVALUATED
        .iter()
        .zip(results.chunks(sweep.len()))
        .collect();

    let (_, greedy) = rows
        .iter()
        .find(|(&s, _)| s == SchedulerKind::Greedy)
        .expect("Greedy is an evaluated scheduler");
    let mut table = Table::new(
        "Fig. 5 — greedy scheduler: traveling energy vs. target missing rate",
        &["ERP", "travel MJ", "missing %", "nonfunctional %"],
    );
    for (k, r) in sweep.iter().zip(*greedy) {
        table.row_f64(
            &format!("{k:.1}"),
            &[
                r.report.travel_energy_mj,
                r.report.missing_rate_pct,
                r.report.nonfunctional_pct,
            ],
            3,
        );
    }
    opts.emit(&table, "fig5_tradeoff.csv");
    println!("\npaper shape: travel monotonically ↓ in ERP; missing ≈0 until ERP≈0.6, then ↑.\n");

    // (figure and panel, title, metric): Fig. 6(a)–(d), then Fig. 7(a)–(b).
    type Panel = (&'static str, &'static str, fn(&EvalReport) -> f64);
    let panels: [Panel; 6] = [
        ("6a", "RV traveling energy (MJ)", |r| r.travel_energy_mj),
        ("6b", "average coverage ratio (%)", |r| r.coverage_ratio_pct),
        ("6c", "nonfunctional sensors (%)", |r| r.nonfunctional_pct),
        ("6d", "recharging cost (m/sensor)", |r| {
            r.recharging_cost_m_per_sensor
        }),
        ("7a", "total energy recharged (MJ)", |r| r.recharged_mj),
        ("7b", "objective score, Eq. 2 (MJ)", |r| r.objective_mj),
    ];
    let shapes = [
        "paper shapes: (a,d) Greedy ≫ insertion schemes, declining in ERP;\n\
         (b) coverage high but declining in ERP; (c) nonfunctional rising in ERP.\n",
        "paper shapes: (a) recharged ↓ in ERP, Combined highest;\n\
         (b) Combined highest objective; Partition overtakes Greedy at large ERP.",
    ];

    let mut header: Vec<String> = vec!["scheme".into()];
    header.extend(sweep.iter().map(|k| format!("K={k:.1}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let (fig6, fig7) = panels.split_at(4);
    for (figure, shape) in [fig6, fig7].into_iter().zip(shapes) {
        for (id, title, metric) in figure {
            let (fig, panel) = id.split_at(1);
            let title = format!("Fig. {fig}({panel}) — {title} vs. ERP");
            let mut table = Table::new(&title, &header_refs);
            for (scheduler, row) in &rows {
                let row: Vec<f64> = row.iter().map(|r| metric(&r.report)).collect();
                table.row_f64(scheduler.label(), &row, 2);
            }
            opts.emit(&table, &format!("fig{id}.csv"));
            println!();
        }
        println!("{shape}");
    }
}
