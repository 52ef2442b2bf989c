//! Damage tolerance of the run store above the frame layer: a damaged
//! event log still materializes its longest valid prefix, a corrupt or
//! missing snapshot-chain link falls back to an earlier one, and foreign
//! files are rejected cleanly. Byte-level framing damage (truncation, bit
//! flips, garbage tails) is fuzzed for both framed codecs in
//! `frame_fuzz.rs`.

use wrsn_sim::store::{snap_file_name, RecordOptions, RunRecorder, StoredRun, LOG_FILE};
use wrsn_sim::{SimConfig, World};

fn chaos_config() -> SimConfig {
    let mut cfg = SimConfig::small(0.25);
    cfg.num_sensors = 40;
    cfg.num_targets = 2;
    cfg.num_rvs = 1;
    cfg.field_side = 50.0;
    cfg.initial_soc = (0.3, 1.0);
    cfg.min_batch_demand_j = 10e3;
    cfg.faults.rv_breakdowns_per_day = 6.0;
    cfg.faults.rv_repair_s = (600.0, 1_800.0);
    cfg.faults.uplink_loss = 0.3;
    cfg.faults.transients_per_day = 4.0;
    cfg
}

/// Records one complete chaos run and returns its directory.
fn record(tag: &str, snap_every: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-store-fuzz-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RecordOptions {
        snap_every,
        trace_cap: 512,
        label: tag.into(),
    };
    let mut rec = RunRecorder::create(&dir, chaos_config(), 7, opts).expect("create");
    rec.run().expect("record");
    dir
}

#[test]
fn damaged_log_still_materializes_the_longest_valid_prefix() {
    let dir = record("prefix", 40);
    let log_path = dir.join(LOG_FILE);
    let bytes = std::fs::read(&log_path).expect("log");
    // Flip one byte about 70% in: everything before stays queryable.
    let mut damaged = bytes.clone();
    let pos = damaged.len() * 7 / 10;
    damaged[pos] ^= 0x20;
    std::fs::write(&log_path, &damaged).expect("write damage");

    let run = StoredRun::open(&dir).expect("open survives damage");
    assert!(run.tail().is_damaged(), "damage must be flagged");
    assert!(run.end_tick().is_none(), "the end mark is past the damage");
    let last = run.last_tick();
    assert!(last > 0, "a healthy prefix must remain");

    // Materialization through the surviving prefix still honors the
    // byte-identity contract.
    let tick = last / 2;
    let world = run.materialize(tick).expect("materialize prefix");
    let mut live = World::new(world.config(), run.seed());
    live.enable_trace(run.trace_cap() as usize);
    for _ in 0..tick {
        live.step();
    }
    assert_eq!(
        world.save_snapshot(),
        live.save_snapshot(),
        "prefix materialization diverged from the live run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_file_falls_back_to_an_earlier_link() {
    let dir = record("snapfall", 30);
    let run = StoredRun::open(&dir).expect("open");
    let links = run.snapshots().to_vec();
    assert!(links.len() >= 3, "need a chain to test fallback");
    // Corrupt the second-to-last link's file; materializing just after it
    // must fall back to the link before and replay further.
    let victim = links[links.len() - 2];
    let path = dir.join(snap_file_name(victim.tick));
    let mut blob = std::fs::read(&path).expect("snap");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    std::fs::write(&path, &blob).expect("corrupt snap");

    let tick = victim.tick + 1;
    let world = run.materialize(tick).expect("fallback materialization");
    let mut live = World::new(world.config(), run.seed());
    live.enable_trace(run.trace_cap() as usize);
    for _ in 0..tick {
        live.step();
    }
    assert_eq!(
        world.save_snapshot(),
        live.save_snapshot(),
        "fallback materialization diverged"
    );

    // Deleting the file entirely behaves the same as corrupting it.
    std::fs::remove_file(&path).expect("remove snap");
    let world = run.materialize(tick).expect("materialize without the link");
    assert_eq!(world.save_snapshot(), live.save_snapshot());

    // With every link gone there is nothing to replay from: a clean
    // error, not a panic.
    for link in &links {
        std::fs::remove_file(dir.join(snap_file_name(link.tick))).ok();
    }
    assert!(run.materialize(tick).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_and_empty_files_are_rejected_cleanly() {
    let dir = std::env::temp_dir().join(format!("wrsn-store-fuzz-alien-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Empty file.
    std::fs::write(dir.join(LOG_FILE), b"").expect("write");
    assert!(StoredRun::open(&dir).is_err());
    // A JSONL journal is not an event log.
    std::fs::write(dir.join(LOG_FILE), b"{\"kind\":\"start\"}\n").expect("write");
    assert!(StoredRun::open(&dir).is_err());
    // A WRSNSNAP snapshot is not an event log either.
    let mut w = World::new(&chaos_config(), 1);
    w.step();
    std::fs::write(dir.join(LOG_FILE), w.save_snapshot()).expect("write");
    assert!(StoredRun::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
