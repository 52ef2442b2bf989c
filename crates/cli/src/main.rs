//! `wrsn` — command-line front end for the JRSSAM simulator.
//!
//! `wrsn` without a command prints the usage: one synopsis per subcommand,
//! generated from its flag table in `commands::COMMANDS`, plus the fault
//! flags and the Table II defaults. A flag the subcommand does not take, or
//! a value given to a switch, exits with status 2 before the subcommand
//! runs.

mod commands;

use wrsn_sim::sweep::Args;

fn main() {
    let parsed = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{}", commands::usage());
        std::process::exit(2);
    });
    let Some(name) = parsed.command.as_deref() else {
        println!("{}", commands::usage());
        return;
    };
    let Some(command @ (_, flags, run)) = commands::COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("error: unknown command `{name}`");
        std::process::exit(1);
    };
    if let Err(e) = parsed.check(flags) {
        eprintln!("error: wrsn {name}: {e}");
        eprintln!("usage:\n{}", commands::synopsis(command));
        std::process::exit(2);
    }
    if let Err(e) = run(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
