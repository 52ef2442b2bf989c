//! The figure binaries' start banner comes from the coordinator only: a
//! sharded sweep re-executes the binary once per loopback shard worker,
//! with the same argv, and those workers must stay quiet.

use std::process::Command;

#[test]
fn sharded_figure_run_prints_its_banner_once() {
    let out_dir = std::env::temp_dir().join(format!("wrsn-banner-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fig4_activity"))
        .args(["--quick", "--days", "2", "--shards", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("fig4_activity starts");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig4_activity failed:\n{stderr}");
    let banners = stderr.lines().filter(|l| l.starts_with("fig4: ")).count();
    assert_eq!(banners, 1, "expected one start banner, stderr:\n{stderr}");
}
