//! End-to-end benchmark of the wrsn reproduction at paper scale.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-run --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists and which
//! layer metric moves which end-to-end metric):
//!
//! * `paper-run` — Table II runs stepped on one thread;
//! * `fig6-sweep` — the Fig. 6 grid on the sharded sweep fabric;
//! * `chaos-replay` — a faulted run recorded into the run store, then
//!   materialized at seed-drawn ticks.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times calls into each layer's public API, keeps its spans in
//! memory and writes them to `.perfbench/` when it ends. Either way the
//! last line of standard output is one JSON object with the operation
//! tally and the metrics, and the exit code is non-zero when any output
//! check failed.

mod calib;
mod chaos_replay;
mod engine_probe;
mod fig6_sweep;
mod paper_run;
mod report;
mod spans;
mod stats;

use report::Report;
use spans::Spans;
use std::path::Path;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload paper-run|fig6-sweep|chaos-replay \
                     --seed N [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-run", "fig6-sweep", "chaos-replay"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Deterministic per-item seed drawn from the workload seed (SplitMix64
/// finalizer over seed and index), so one workload seed names a whole set
/// of world seeds.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<bool, String> {
    let work = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".perfbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let budget = Duration::from_secs(args.seconds);
    let seed = args.seed;
    let report = if args.trace {
        traced(args, budget, &work)?
    } else {
        match args.workload.as_str() {
            "paper-run" => paper_run::measure(seed, budget)?,
            "fig6-sweep" => fig6_sweep::measure(seed, budget, &work)?,
            _ => chaos_replay::measure(seed, budget, &work)?,
        }
    };
    report.print(&args.workload, args.trace)
}

fn traced(args: &Args, budget: Duration, work: &Path) -> Result<Report, String> {
    let mut spans = Spans::new();
    let seed = args.seed;
    let mut r = match args.workload.as_str() {
        "paper-run" => paper_run::trace(seed, budget, &mut spans),
        "fig6-sweep" => fig6_sweep::trace(seed, budget, work, &mut spans)?,
        _ => chaos_replay::trace(seed, budget, work, &mut spans)?,
    };
    let path = work.join(format!("spans-{}-seed{seed}.jsonl", args.workload));
    spans
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    r.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(r)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if std::env::var_os(wrsn_sim::shard::WORKER_ENV).is_some() {
        fig6_sweep::shard_worker(args.seed);
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
