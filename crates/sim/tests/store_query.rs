//! Cross-run query layer, checked against hand-computed hit sets over a
//! synthetic multi-run corpus authored directly with the store's
//! `LogWriter` (no simulation involved, so every expected hit is a fact
//! about the corpus below, not about engine behaviour).
//!
//! Corpus (ticks in parentheses; t = 60·tick seconds):
//!
//! * `a-run1` (label "run1"): samples cov 0.95 (10), cov 0.85 (20);
//!   events rv_broke (100), depleted (40), depleted (150).
//! * `b-run2` (label "run2"): sample cov 0.88 alive 20 (10);
//!   events rv_broke (200), depleted (205).
//! * `c-run3` (label empty → dir name): sample cov 0.99 (10);
//!   event depleted (30).

use std::path::PathBuf;
use wrsn_core::{RvId, SensorId};
use wrsn_sim::store::{EventKind, LogRecord, LogWriter, Predicate, RunStore, LOG_FILE};
use wrsn_sim::TraceEvent;

fn meta(label: &str) -> LogRecord {
    LogRecord::Meta {
        config_hash: 0xABCD,
        seed: 1,
        tick_s: 60.0,
        snap_every: 100,
        trace_cap: 512,
        label: label.into(),
    }
}

fn sample(tick: u64, coverage: f64, alive: f64) -> LogRecord {
    LogRecord::Sample {
        tick,
        t: tick as f64 * 60.0,
        coverage,
        nonfunctional: 0.0,
        alive,
    }
}

fn rv_broke(tick: u64) -> LogRecord {
    LogRecord::Event {
        tick,
        event: TraceEvent::RvBroke {
            t: tick as f64 * 60.0,
            rv: RvId(0),
            dropped_stops: 2,
        },
    }
}

fn depleted(tick: u64, sensor: u32) -> LogRecord {
    LogRecord::Event {
        tick,
        event: TraceEvent::SensorDepleted {
            t: tick as f64 * 60.0,
            sensor: SensorId(sensor),
        },
    }
}

fn write_run(root: &std::path::Path, dir: &str, records: &[LogRecord]) {
    let run_dir = root.join(dir);
    std::fs::create_dir_all(&run_dir).expect("mkdir");
    let mut w = LogWriter::create(run_dir.join(LOG_FILE), &records[0]).expect("create");
    for r in &records[1..] {
        w.push(r);
    }
    w.flush().expect("flush");
}

/// Writes the corpus into a directory of its own per test (`test` names
/// it), so tests running in parallel never share or delete each other's.
fn corpus(test: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("wrsn-store-query-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    write_run(
        &root,
        "a-run1",
        &[
            meta("run1"),
            sample(10, 0.95, 40.0),
            sample(20, 0.85, 38.0),
            depleted(40, 3),
            rv_broke(100),
            depleted(150, 5),
            LogRecord::End { tick: 300 },
        ],
    );
    write_run(
        &root,
        "b-run2",
        &[
            meta("run2"),
            sample(10, 0.88, 20.0),
            rv_broke(200),
            depleted(205, 9),
            LogRecord::End { tick: 300 },
        ],
    );
    write_run(
        &root,
        "c-run3",
        &[
            meta(""),
            sample(10, 0.99, 41.0),
            depleted(30, 1),
            LogRecord::End { tick: 300 },
        ],
    );
    root
}

#[test]
fn coverage_threshold_scan_returns_exactly_the_dipping_samples() {
    let root = corpus("coverage");
    let store = RunStore::open(&root).expect("open");
    assert_eq!(store.runs().len(), 3);

    let hits = store.scan(&Predicate::CoverageBelow(0.9));
    // Hand-computed: run1's 0.85 at tick 20, run2's 0.88 at tick 10.
    assert_eq!(hits.len(), 2);
    assert_eq!((hits[0].run.as_str(), hits[0].tick), ("run1", 20));
    assert_eq!(hits[0].time_s, 1_200.0);
    assert!(hits[0].what.contains("0.85"), "{}", hits[0].what);
    assert_eq!((hits[1].run.as_str(), hits[1].tick), ("run2", 10));

    // A threshold below every sample matches nothing; above, everything.
    assert!(store.scan(&Predicate::CoverageBelow(0.5)).is_empty());
    assert_eq!(store.scan(&Predicate::CoverageBelow(1.0)).len(), 4);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn alive_threshold_and_event_kind_scans() {
    let root = corpus("alive");
    let store = RunStore::open(&root).expect("open");

    let hits = store.scan(&Predicate::AliveBelow(30.0));
    assert_eq!(hits.len(), 1, "only run2 drops below 30 alive");
    assert_eq!((hits[0].run.as_str(), hits[0].tick), ("run2", 10));

    let hits = store.scan(&Predicate::Event(EventKind::Depleted));
    // run-dir order (a, b, c), tick order within each run.
    let got: Vec<(&str, u64)> = hits.iter().map(|h| (h.run.as_str(), h.tick)).collect();
    assert_eq!(
        got,
        vec![("run1", 40), ("run1", 150), ("run2", 205), ("c-run3", 30)],
        "unlabeled runs fall back to their directory name"
    );

    assert_eq!(store.scan(&Predicate::Event(EventKind::RvBroke)).len(), 2);
    assert!(store
        .scan(&Predicate::Event(EventKind::Dispatch))
        .is_empty());

    // select() truncates the same ordering.
    let first_two = store.select(&Predicate::Event(EventKind::Depleted), 2);
    assert_eq!(first_two.len(), 2);
    assert_eq!(first_two[1].tick, 150);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn within_join_is_inclusive_and_per_run() {
    let root = corpus("within");
    let store = RunStore::open(&root).expect("open");
    let within = |ticks| {
        store.scan(&Predicate::Within {
            needle: EventKind::RvBroke,
            anchor: EventKind::Depleted,
            ticks,
        })
    };

    // K = 50: run1's rv_broke(100) has depleted(150) at distance exactly
    // 50 (inclusive boundary) — and depleted(40) at 60, too far on its
    // own. run2's rv_broke(200) has depleted(205) at distance 5.
    let hits = within(50);
    let got: Vec<(&str, u64)> = hits.iter().map(|h| (h.run.as_str(), h.tick)).collect();
    assert_eq!(got, vec![("run1", 100), ("run2", 200)]);
    assert!(hits[0].what.contains("near depleted"), "{}", hits[0].what);

    // K = 49: the exactly-50 pair drops out, run2's survives. This pins
    // the boundary as |Δtick| ≤ K, not <.
    let close = within(49);
    let got: Vec<(&str, u64)> = close.iter().map(|h| (h.run.as_str(), h.tick)).collect();
    assert_eq!(got, vec![("run2", 200)]);

    // K = 60 re-admits run1 via depleted(40); the join never crosses
    // runs — run3's depleted(30) anchors nobody (run3 has no rv_broke).
    assert_eq!(within(60).len(), 2);

    // K = 0 would need same-tick pairs: none exist.
    assert!(within(0).is_empty());

    // The reversed join direction reports the anchors' side instead.
    let rev = store.scan(&Predicate::Within {
        needle: EventKind::Depleted,
        anchor: EventKind::RvBroke,
        ticks: 50,
    });
    let got: Vec<(&str, u64)> = rev.iter().map(|h| (h.run.as_str(), h.tick)).collect();
    assert_eq!(got, vec![("run1", 150), ("run2", 205)]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn run_lookup_and_metadata_round_trip() {
    let root = corpus("run");
    let store = RunStore::open(&root).expect("open");
    let run = store.run("run2").expect("by label");
    assert_eq!(run.seed(), 1);
    assert_eq!(run.end_tick(), Some(300));
    assert_eq!(run.last_tick(), 300);
    assert_eq!(run.events().len(), 2);
    assert_eq!(run.samples().len(), 1);
    assert!(store.run("c-run3").is_some(), "dir-name fallback resolves");
    assert!(store.run("nope").is_none());
    std::fs::remove_dir_all(&root).ok();
}
