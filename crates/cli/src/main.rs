//! `wrsn` — command-line front end for the JRSSAM simulator.
//!
//! ```text
//! wrsn run      [--days N] [--sensors N] [--targets N] [--rvs N] [--field M]
//!               [--scheduler NAME] [--erp K] [--no-rr] [--seed S]
//!               [--failures RATE] [--trace FILE] [fault flags]
//!               [--record DIR] [--snap-every N]
//! wrsn watch    [same flags as run] [--frames N] [--width COLS] [--fps N]
//! wrsn sweep    [--scheduler NAME] [--days N] [--seed S] [--points N]
//!               [--journal DIR] [--resume] [--timeout-s S] [--retries N]
//!               [--shards N] [--shard-inflight N] [--shard-retries N]
//!               [--lease-timeout-s S] [--chaos-workers P]
//!               [--agents HOST:PORT,..] [--chaos-net P]
//!               [--store DIR] [--store-snap-every N]
//!               [--csv FILE] [fault flags]
//! wrsn agent    --listen HOST:PORT [--work-dir DIR]
//! wrsn replay   --run DIR [--tick N] [--out FILE] [--from-zero] [--verify]
//!               [--info]
//! wrsn query    --store DIR [--list] [--coverage-below X] [--alive-below N]
//!               [--event KIND] [--within NEEDLE:ANCHOR:K] [--limit N]
//! wrsn inspect  [--sensors N] [--targets N] [--field M] [--seed S]
//! wrsn analyze  [--sensors N] [--targets N] [--rvs N] [--utilization F]
//! wrsn schedulers
//! ```
//!
//! The fault flags and defaults are listed in `commands::USAGE`, which
//! `wrsn` prints when run without a command.

mod commands;

use wrsn_sim::sweep::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_deref() {
        Some("run") => commands::run(&parsed),
        Some("watch") => commands::watch(&parsed),
        Some("sweep") => commands::sweep(&parsed),
        Some("replay") => commands::replay(&parsed),
        Some("query") => commands::query(&parsed),
        Some("inspect") => commands::inspect(&parsed),
        Some("agent") => commands::agent(&parsed),
        Some("analyze") => commands::analyze(&parsed),
        Some("schedulers") => commands::schedulers(),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
