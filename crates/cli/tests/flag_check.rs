//! Every `wrsn` subcommand checks its flags before it runs: a misspelled
//! flag, a flag another subcommand takes, or a value given to a switch
//! ends in a labelled error and exit status 2, with nothing on stdout.
//! Each command line is otherwise tiny, so without the check it runs to
//! completion in moments and the test fails on its exit status.

use std::process::Command;

/// Runs `wrsn args…` and requires exit 2 with `error: wrsn CMD: message`.
fn rejects(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_wrsn"))
        .args(args)
        .output()
        .expect("wrsn starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}, stderr:\n{stderr}");
    let label = format!("error: wrsn {}: {message}\n", args[0]);
    assert!(stderr.starts_with(&label), "{args:?}, stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run");
}

#[test]
fn run_rejects_a_misspelled_flag() {
    rejects(
        &["run", "--sensor", "10", "--days", "0.05"],
        "unknown flag --sensor",
    );
}

#[test]
fn watch_rejects_a_misspelled_flag() {
    rejects(
        &["watch", "--frame", "3", "--frames", "1", "--days", "0.05"],
        "unknown flag --frame",
    );
}

#[test]
fn sweep_rejects_a_misspelled_flag() {
    rejects(
        &["sweep", "--point", "3", "--points", "2", "--days", "0.05"],
        "unknown flag --point",
    );
}

#[test]
fn agent_rejects_a_misspelled_flag() {
    rejects(&["agent", "--listn", "127.0.0.1:0"], "unknown flag --listn");
}

#[test]
fn replay_rejects_a_misspelled_flag() {
    rejects(
        &["replay", "--run", "no-such-run", "--tik", "5"],
        "unknown flag --tik",
    );
}

#[test]
fn query_rejects_a_misspelled_flag() {
    rejects(
        &["query", "--store", "no-such-store", "--lst"],
        "unknown flag --lst",
    );
}

#[test]
fn inspect_rejects_a_misspelled_flag() {
    rejects(
        &["inspect", "--sensor-range", "8"],
        "unknown flag --sensor-range",
    );
}

#[test]
fn analyze_rejects_a_misspelled_flag() {
    rejects(
        &["analyze", "--utilisation", "0.7"],
        "unknown flag --utilisation",
    );
}

#[test]
fn schedulers_rejects_any_flag() {
    rejects(&["schedulers", "--all"], "unknown flag --all");
}

#[test]
fn a_flag_of_another_subcommand_is_rejected() {
    rejects(
        &["run", "--csv", "out.csv", "--days", "0.05"],
        "unknown flag --csv",
    );
    rejects(
        &[
            "watch", "--trace", "t.csv", "--frames", "1", "--days", "0.05",
        ],
        "unknown flag --trace",
    );
    rejects(&["analyze", "--days", "1"], "unknown flag --days");
}

#[test]
fn a_value_given_to_a_switch_is_rejected() {
    rejects(
        &["run", "--no-rr", "yes", "--days", "0.05"],
        "--no-rr takes no value, got `yes`",
    );
    rejects(
        &["replay", "--run", "no-such-run", "--verify", "1"],
        "--verify takes no value, got `1`",
    );
}
