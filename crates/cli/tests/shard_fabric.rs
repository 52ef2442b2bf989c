//! End-to-end tests of the sharded sweep fabric through the `wrsn` binary
//! (DESIGN.md §4g): merge determinism across shard counts, chaos-injected
//! worker kills/stalls, and a kill -9 of the whole coordinator process
//! group followed by `--resume`. All of them gate the same contract — the
//! sharded CSV is byte-identical to the uninterrupted single-process one.
//! A `--store` sweep additionally checks that shard workers record the
//! same runs an in-process sweep would.
#![cfg(unix)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_wrsn");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-fabric-{name}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs `wrsn sweep` on a small fixed grid plus `extra` flags, writing the
/// CSV to `csv`; returns captured stderr.
fn sweep(grid: &[&str], extra: &[&str], csv: &Path) -> String {
    let out = Command::new(BIN)
        .arg("sweep")
        .args(grid)
        .arg("--csv")
        .arg(csv)
        .args(extra)
        .stdout(Stdio::null())
        .output()
        .expect("spawn wrsn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "wrsn sweep failed:\n{stderr}");
    stderr
}

/// A fast grid: 7 one-day runs, ~tens of milliseconds each.
const QUICK: &[&str] = &[
    "--days",
    "1",
    "--sensors",
    "30",
    "--targets",
    "3",
    "--points",
    "7",
];

/// A slower grid (~1 s per point in debug builds) so there is a window to
/// kill processes mid-shard.
const SLOW: &[&str] = &[
    "--days",
    "20",
    "--sensors",
    "50",
    "--targets",
    "3",
    "--points",
    "7",
];

#[test]
fn sharded_csv_is_byte_identical_across_shard_counts() {
    let dir = tmp_dir("counts");
    let reference = dir.join("single.csv");
    sweep(QUICK, &[], &reference);
    let want = fs::read(&reference).expect("reference CSV");
    for shards in [1usize, 3, 7] {
        let csv = dir.join(format!("sharded-{shards}.csv"));
        let fab = dir.join(format!("fab-{shards}"));
        sweep(
            QUICK,
            &[
                "--shards",
                &shards.to_string(),
                "--journal",
                fab.to_str().unwrap(),
            ],
            &csv,
        );
        assert_eq!(
            fs::read(&csv).expect("sharded CSV"),
            want,
            "CSV must be byte-identical to the single-process run at --shards {shards}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_killed_workers_recover_to_an_identical_csv() {
    let dir = tmp_dir("chaos");
    let reference = dir.join("single.csv");
    sweep(SLOW, &[], &reference);
    let csv = dir.join("chaos.csv");
    let fab = dir.join("fab");
    let stderr = sweep(
        SLOW,
        &[
            "--shards",
            "4",
            "--chaos-workers",
            "0.8",
            "--lease-timeout-s",
            "2",
            "--journal",
            fab.to_str().unwrap(),
        ],
        &csv,
    );
    // The chaos plan is seeded, so at p = 0.8 over 4 shards it injects
    // both fault kinds — make sure the kill path and the stall path (a
    // worker that stops heartbeating until its lease expires) both ran.
    for injected in ["SIGKILLed", "stalled"] {
        assert!(
            stderr.contains(&format!("will be {injected}")),
            "expected a `{injected}` chaos injection in stderr:\n{stderr}"
        );
    }
    assert_eq!(
        fs::read(&csv).expect("chaos CSV"),
        fs::read(&reference).expect("reference CSV"),
        "CSV after chaos-killed/stalled workers must equal the clean run's"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_dash_nine_mid_sweep_then_resume_yields_identical_csv() {
    use std::os::unix::process::CommandExt;

    let dir = tmp_dir("kill9");
    let reference = dir.join("single.csv");
    sweep(SLOW, &[], &reference);

    // Launch a serialized sharded sweep (inflight 1 stretches the wall
    // clock) in its own process group so SIGKILL takes out the coordinator
    // AND its workers — orphaned workers must not keep writing to shard
    // journals while the resumed coordinator owns them.
    let fab = dir.join("fab");
    let csv = dir.join("resumed.csv");
    let mut cmd = Command::new(BIN);
    cmd.arg("sweep")
        .args(SLOW)
        .args([
            "--shards",
            "7",
            "--shard-inflight",
            "1",
            "--journal",
            fab.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .process_group(0);
    let mut child = cmd.spawn().expect("spawn coordinator");

    // Wait until at least two shards have journals on disk (i.e. we are
    // genuinely mid-sweep), then kill -9 the whole group.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let journals = (0..7)
            .filter(|i| {
                fab.join(format!("shard-{i:04}"))
                    .join("journal.jsonl")
                    .is_file()
            })
            .count();
        if journals >= 2 {
            break;
        }
        if child.try_wait().expect("poll coordinator").is_some() {
            // Sweep finished before we could kill it; the resume below
            // still exercises replay, just not mid-flight recovery.
            break;
        }
        assert!(Instant::now() < deadline, "no shard journals after 120 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    if child.try_wait().expect("poll coordinator").is_none() {
        let group = format!("-{}", child.id());
        let killed = Command::new("kill")
            .args(["-9", "--", &group])
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -9 {group} failed");
    }
    child.wait().expect("reap coordinator");
    // Fabric directories from builds whose workers heartbeated through a
    // per-shard `lease` file still hold one; resume must ignore it.
    for i in 0..7 {
        let shard = fab.join(format!("shard-{i:04}"));
        if shard.is_dir() {
            fs::write(shard.join("lease"), "17\n").expect("plant a stale lease file");
        }
    }

    sweep(
        SLOW,
        &[
            "--shards",
            "7",
            "--journal",
            fab.to_str().unwrap(),
            "--resume",
        ],
        &csv,
    );
    assert_eq!(
        fs::read(&csv).expect("resumed CSV"),
        fs::read(&reference).expect("reference CSV"),
        "CSV after kill -9 + --resume must equal the uninterrupted run's"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_store_records_one_run_per_job_like_an_in_process_sweep() {
    use wrsn_sim::store::RunStore;

    // Sorted labels of every recorded run under `root`; each must be
    // sealed (its recording reached the end of the run).
    fn recorded_labels(root: &Path) -> Vec<String> {
        let store = RunStore::open(root).expect("open run store");
        let mut labels: Vec<String> = store
            .runs()
            .iter()
            .map(|run| {
                assert!(run.end_tick().is_some(), "run {} is unsealed", run.name());
                run.name()
            })
            .collect();
        labels.sort();
        labels
    }

    let dir = tmp_dir("store");
    let single = dir.join("single-store");
    sweep(
        QUICK,
        &["--store", single.to_str().unwrap()],
        &dir.join("single.csv"),
    );
    let sharded = dir.join("sharded-store");
    let fab = dir.join("fab");
    sweep(
        QUICK,
        &[
            "--shards",
            "2",
            "--store",
            sharded.to_str().unwrap(),
            "--journal",
            fab.to_str().unwrap(),
        ],
        &dir.join("sharded.csv"),
    );
    let want = recorded_labels(&single);
    assert_eq!(want.len(), 7, "one recorded run per job: {want:?}");
    assert_eq!(
        recorded_labels(&sharded),
        want,
        "a sharded --store sweep must record the same runs as an in-process one"
    );
    assert_eq!(
        fs::read(dir.join("sharded.csv")).expect("sharded CSV"),
        fs::read(dir.join("single.csv")).expect("single CSV"),
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_without_journal_is_rejected() {
    let out = Command::new(BIN)
        .args(["sweep", "--shards", "3"])
        .output()
        .expect("spawn wrsn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--journal"), "{stderr}");
}
