//! `fleet_sizing --seeds N` runs every fleet size at N seeds, like the
//! other figure binaries; `run_sweep`'s own tests check that each column
//! is the mean over them.

use std::process::Command;

#[test]
fn fleet_sizing_announces_and_runs_its_seeds() {
    let out_dir = std::env::temp_dir().join(format!("wrsn-fleet-seeds-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_sizing"))
        .args(["--quick", "--days", "1", "--seeds", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("fleet_sizing starts");
    let csv = std::fs::read_to_string(out_dir.join("fleet_sizing.csv"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fleet_sizing failed:\n{stderr}");
    let banners: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("fleet_sizing: "))
        .collect();
    assert_eq!(
        banners,
        ["fleet_sizing: 6 runs × 2 seed(s), 1 days each…"],
        "stderr:\n{stderr}"
    );
    // A header and one row per fleet size.
    assert_eq!(csv.expect("CSV written").lines().count(), 7);
}
