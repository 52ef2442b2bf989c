//! Golden-bytes pins for the on-disk and wire formats: the `WRSNEVTL` run
//! store log, the `WRSNFAB1` fabric stream, the `WRSNSNAP` world snapshot
//! and the `journal.jsonl` run journal.
//!
//! Each committed file under `tests/fixtures/` was produced by encoding
//! the pinned inputs below. Two properties are checked per format:
//!
//! * decoding the fixture and re-encoding the result gives the fixture's
//!   exact bytes (the decoder loses nothing); for the journal, resuming
//!   from the fixture restores every outcome bit for bit;
//! * encoding the pinned inputs today still gives the fixture's exact
//!   bytes (the encoder has not drifted).
//!
//! Round-trip tests alone cannot catch a codec change that shifts both
//! sides at once; these can. A fixture only changes together with its
//! format's version number, with one exception: the event log and the
//! journal record a simulated run, so a change that moves the
//! simulation's results on purpose moves their contents while their
//! format stays. Such a change first shows that the old files still
//! decode and re-encode byte-identically under the new code, then
//! regenerates them under the same name. A superseded fixture of any
//! format (snapshot, event log or wire stream) stays in the tree, and
//! decoding it must end in a labelled version error, never a panic.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use wrsn_sim::batch::{run_supervised, JobSpec, SupervisorOptions};
use wrsn_sim::fabric::wire::{Assign, Msg};
use wrsn_sim::frame::{self, Reader, Record, Tail};
use wrsn_sim::journal::{Journal, JOURNAL_FILE};
use wrsn_sim::snapshot::{SnapshotError, VERSION};
use wrsn_sim::store::{log, RecordOptions, RunRecorder, StoreError, StoredRun, LOG_FILE};
use wrsn_sim::{SimConfig, SimOutcome, World};

const LOG_FIXTURE: &str = "events-v2.log";
const WIRE_FIXTURE: &str = "fabric-v2.bin";
const SNAP_FIXTURE: &str = "world-v2.snap";
/// The snapshot fixture of format version 1, whose sensor levels were
/// floating-point joules.
const OLD_SNAP_FIXTURE: &str = "world-v1.snap";
/// The event log and wire stream of format version 1, whose frame
/// trailers (and snapshot-chain marker hashes) were FNV-1a.
const OLD_LOG_FIXTURE: &str = "events-v1.log";
const OLD_WIRE_FIXTURE: &str = "fabric-v1.bin";
const JOURNAL_FIXTURE: &str = "journal-v1.jsonl";

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

/// A short faulted world: RV breakdowns, uplink loss and transient
/// outages all fire within its six simulated hours.
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

/// Records the pinned chaos run and returns its event-log bytes.
fn pinned_log() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("wrsn-golden-log-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RecordOptions {
        snap_every: 120,
        trace_cap: 256,
        label: "golden/seed=7".into(),
    };
    let mut rec = RunRecorder::create(&dir, chaos_config(), 7, opts).expect("create");
    rec.run().expect("record");
    let bytes = std::fs::read(dir.join(LOG_FILE)).expect("log");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// One message of every kind, with a full `Assign` whose fields all hold
/// non-default values.
fn pinned_msgs() -> Vec<Msg> {
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| {
            let mut cfg = SimConfig::small(0.25);
            cfg.num_sensors = 12 + i;
            cfg.faults.uplink_loss = 0.1 * i as f64;
            JobSpec::new(format!("golden-job-{i}"), &cfg, 90 + i as u64)
        })
        .collect();
    vec![
        Msg::Assign(Box::new(Assign {
            shard: 3,
            attempt: 1,
            grid_hash: wrsn_sim::journal::grid_hash(&jobs),
            threads: 2,
            retries: 3,
            retry_backoff_s: 0.2,
            timeout_s: 30.0,
            sim_time_cap_s: 7200.0,
            stall: true,
            abort_after_ms: 250,
            jobs,
            prior_journal: "meta {\"v\":1}\ndone {\"index\":0}\n".into(),
        })),
        Msg::Accept { shard: 3 },
        Msg::Refuse {
            reason: "grid hash mismatch".into(),
        },
        Msg::Heartbeat { counter: 42 },
        Msg::JournalLines {
            text: "done {\"index\":1}\n".into(),
        },
        Msg::Done {
            ok: false,
            error: "agent runner panicked".into(),
        },
    ]
}

/// A traced world stepped partway through the pinned chaos run.
fn pinned_world() -> World {
    let mut w = World::new(&chaos_config(), 11);
    w.enable_trace(64);
    for _ in 0..150 {
        w.step();
    }
    w
}

/// The pinned three-job sweep behind the journal fixture.
fn pinned_jobs() -> Vec<JobSpec> {
    (0..3)
        .map(|seed| JobSpec::new(format!("golden/seed={seed}"), &chaos_config(), seed))
        .collect()
}

/// One worker, so the journal's records land in job order.
fn single_worker() -> SupervisorOptions {
    SupervisorOptions {
        workers: NonZeroUsize::new(1),
        ..SupervisorOptions::default()
    }
}

/// A fresh scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every field of an outcome, with each `f64` as its bit pattern.
fn outcome_bits(o: &SimOutcome) -> Vec<u64> {
    let r = &o.report;
    vec![
        r.travel_distance_m.to_bits(),
        r.travel_energy_mj.to_bits(),
        r.recharged_mj.to_bits(),
        r.objective_mj.to_bits(),
        r.coverage_ratio_pct.to_bits(),
        r.missing_rate_pct.to_bits(),
        r.nonfunctional_pct.to_bits(),
        r.recharging_cost_m_per_sensor.to_bits(),
        r.recharge_visits,
        o.total_drained_j.to_bits(),
        o.total_delivered_j.to_bits(),
        o.deaths,
        o.plans,
        o.rv_energy_shortfall_j.to_bits(),
        o.final_alive as u64,
        o.permanent_failures,
        o.rv_charging_utilization.to_bits(),
        o.rv_breakdowns,
        o.transient_faults,
        o.uplink_drops,
    ]
}

/// The pinned sweep's outcomes, run without a journal.
fn fresh_outcome_bits() -> Vec<Vec<u64>> {
    run_supervised(&pinned_jobs(), &single_worker(), None)
        .iter()
        .map(|o| outcome_bits(o.as_ref().expect("pinned job runs")))
        .collect()
}

#[test]
fn log_fixture_reencodes_byte_identically() {
    let bytes = fixture(LOG_FIXTURE);
    let decoded = log::decode(&bytes).expect("decode");
    assert_eq!(decoded.tail, Tail::Clean);
    assert_eq!(decoded.ends.last(), Some(&(bytes.len() as u64)));
    assert!(
        frame::encode(&decoded.records) == bytes,
        "re-encoded log differs from the fixture"
    );
}

#[test]
fn log_fixture_matches_a_fresh_recording() {
    assert!(
        pinned_log() == fixture(LOG_FIXTURE),
        "recording the pinned run no longer reproduces {LOG_FIXTURE}"
    );
}

#[test]
fn wire_fixture_reencodes_byte_identically() {
    let bytes = fixture(WIRE_FIXTURE);
    let decoded = frame::decode::<Msg>(&bytes).expect("decode");
    assert_eq!(decoded.tail, Tail::Clean);
    let kinds: Vec<_> = decoded.records.iter().map(Msg::kind).collect();
    assert_eq!(
        kinds,
        [
            "assign",
            "accept",
            "refuse",
            "heartbeat",
            "journal_lines",
            "done"
        ]
    );
    assert!(
        frame::encode(&decoded.records) == bytes,
        "re-encoded stream differs from the fixture"
    );
}

#[test]
fn wire_fixture_matches_the_pinned_messages() {
    assert!(
        frame::encode(&pinned_msgs()) == fixture(WIRE_FIXTURE),
        "encoding the pinned messages no longer reproduces {WIRE_FIXTURE}"
    );
}

#[test]
fn snapshot_fixture_reencodes_byte_identically() {
    let bytes = fixture(SNAP_FIXTURE);
    let world = World::resume(&bytes).expect("decode");
    assert!(
        world.save_snapshot() == bytes,
        "re-encoded snapshot differs from the fixture"
    );
}

#[test]
fn snapshot_fixture_matches_the_pinned_world() {
    assert!(
        pinned_world().save_snapshot() == fixture(SNAP_FIXTURE),
        "snapshotting the pinned world no longer reproduces {SNAP_FIXTURE}"
    );
}

#[test]
fn an_old_snapshot_fixture_ends_in_a_version_error() {
    let Err(err) = World::resume(&fixture(OLD_SNAP_FIXTURE)) else {
        panic!("{OLD_SNAP_FIXTURE} decoded");
    };
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion { found: 1, .. }),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        format!("unsupported WRSNSNAP version 1 (this build reads {VERSION})")
    );
}

#[test]
fn an_old_log_fixture_ends_in_a_version_error() {
    let bytes = fixture(OLD_LOG_FIXTURE);
    let err = log::decode(&bytes).expect_err("decoded");
    let expected = format!(
        "unsupported WRSNEVTL version 1 (this build reads {})",
        log::LogRecord::VERSION
    );
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion { found: 1, .. }),
        "{err:?}"
    );
    assert_eq!(err.to_string(), expected);

    let dir = scratch_dir("old-log");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(LOG_FILE), &bytes).expect("copy");
    let opened = StoredRun::open(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let err = opened.expect_err("opened");
    assert!(
        matches!(
            err,
            StoreError::Snapshot(SnapshotError::UnsupportedVersion { found: 1, .. })
        ),
        "{err:?}"
    );
    assert_eq!(err.to_string(), format!("store decode error: {expected}"));
}

#[test]
fn an_old_wire_fixture_ends_in_a_version_error() {
    let bytes = fixture(OLD_WIRE_FIXTURE);
    let err = frame::decode::<Msg>(&bytes).expect_err("decoded");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion { found: 1, .. }),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        format!(
            "unsupported WRSNFAB1 version 1 (this build reads {})",
            Msg::VERSION
        )
    );
    let err = Reader::<Msg, _>::new(&bytes[..])
        .recv()
        .expect_err("received");
    assert_eq!(
        err,
        format!("peer speaks WRSNFAB1 v1, expected v{}", Msg::VERSION)
    );
}

#[test]
fn journal_fixture_matches_a_fresh_sweep() {
    let dir = scratch_dir("journal-fresh");
    let jobs = pinned_jobs();
    let journal = Journal::create(&dir, &jobs).expect("create");
    run_supervised(&jobs, &single_worker(), Some(&journal));
    drop(journal);
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        bytes == fixture(JOURNAL_FIXTURE),
        "journaling the pinned sweep no longer reproduces {JOURNAL_FIXTURE}"
    );
}

#[test]
fn journal_fixture_resumes_to_the_fresh_outcomes() {
    let dir = scratch_dir("journal-resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(JOURNAL_FILE), fixture(JOURNAL_FIXTURE)).expect("copy");
    let jobs = pinned_jobs();
    let journal = Journal::resume(&dir, &jobs).expect("resume");
    assert_eq!(journal.completed_count(), jobs.len());
    let restored: Vec<Vec<u64>> = (0..jobs.len())
        .map(|i| outcome_bits(journal.completed(i).expect("done in the fixture")))
        .collect();
    drop(journal);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(restored, fresh_outcome_bits());
}
