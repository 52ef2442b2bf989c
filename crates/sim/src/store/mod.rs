//! Event-sourced run store with time-travel replay.
//!
//! A *run directory* holds everything needed to reconstruct any historical
//! tick of one simulation run:
//!
//! * `events.log` — an append-only framed log ([`log`]) of the run's trace
//!   events, metrics samples and snapshot-chain markers;
//! * `snap-<tick>.snap` — the snapshot chain: full `WRSNSNAP` world images
//!   every `snap_every` ticks (tick 0 and the final tick always included).
//!
//! [`StoredRun::materialize`] rebuilds tick `T` by loading the nearest
//! verified snapshot at or before `T` and replaying — deterministically
//! re-stepping — the remaining ticks. The contract, enforced by
//! `tests/store_properties.rs` in debug *and* release: the materialized
//! world's `WRSNSNAP` bytes equal a live run's at the same tick, bit for
//! bit. Determinism-bug bisection therefore becomes a store query instead
//! of a re-simulation.
//!
//! [`RunStore`] opens a tree of run directories (a sweep's per-job stores,
//! keyed by the journal's grid hash) and answers cross-run predicate
//! queries ([`Predicate`]): "where did coverage dip below 0.9", "which RV
//! breakdowns happened within 50 ticks of a depletion", and so on.

pub mod log;
mod query;
mod recorder;

pub use log::{LogRecord, LogWriter, LOG_FILE};
pub use query::{EventKind, Hit, Predicate};
pub use recorder::{snap_file_name, RecordOptions, RunRecorder};

use crate::frame::Tail;
use crate::snapshot::SnapshotError;
use crate::World;
use recorder::read_snap;
use std::path::{Path, PathBuf};

/// Store-layer failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// A snapshot (or snapshot-codec-encoded frame) failed to decode.
    Snapshot(SnapshotError),
    /// The store's own invariants are broken (no meta record, no
    /// verifiable snapshot link, mismatched caps, ...).
    Corrupt(String),
    /// The requested tick lies outside the recorded history.
    OutOfRange {
        /// The tick asked for.
        tick: u64,
        /// The last tick the store can materialize.
        last: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Snapshot(e) => write!(f, "store decode error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::OutOfRange { tick, last } => {
                write!(
                    f,
                    "tick {tick} is outside the recorded history (last {last})"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// How a supervised batch wires recording: where run directories go and
/// the recorder knobs every job shares.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; per-job run dirs are created beneath it, keyed by
    /// the journal's grid hash (`grid-<hash>/job-<idx>-<label>/`).
    pub root: PathBuf,
    /// Snapshot-chain interval in ticks.
    pub snap_every: u64,
    /// Trace cap for recorded worlds.
    pub trace_cap: usize,
}

impl StoreConfig {
    /// Default knobs rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let d = RecordOptions::default();
        Self {
            root: root.into(),
            snap_every: d.snap_every,
            trace_cap: d.trace_cap,
        }
    }

    /// The recorder options this config implies for a job labelled `label`.
    pub fn record_options(&self, label: &str) -> RecordOptions {
        RecordOptions {
            snap_every: self.snap_every,
            trace_cap: self.trace_cap,
            label: label.to_string(),
        }
    }
}

/// One metrics sample read back from a log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredSample {
    /// Tick the sample was journaled at.
    pub tick: u64,
    /// Simulation time (s).
    pub t: f64,
    /// Coverage ratio in [0, 1].
    pub coverage: f64,
    /// Nonfunctional fraction in [0, 1].
    pub nonfunctional: f64,
    /// Sensors alive.
    pub alive: f64,
}

/// A snapshot-chain marker read back from a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapMarker {
    /// Tick the link captures.
    pub tick: u64,
    /// Snapshot file length in bytes.
    pub bytes: u64,
    /// [`crate::codec::checksum`] of the snapshot file.
    pub hash: u64,
}

/// One opened run directory: the decoded log split into its parts, ready
/// to materialize or query.
#[derive(Debug)]
pub struct StoredRun {
    dir: PathBuf,
    label: String,
    seed: u64,
    config_hash: u64,
    tick_s: f64,
    snap_every: u64,
    trace_cap: u64,
    events: Vec<(u64, crate::TraceEvent)>,
    samples: Vec<StoredSample>,
    snaps: Vec<SnapMarker>,
    end_tick: Option<u64>,
    tail: Tail,
}

impl StoredRun {
    /// Opens `dir`'s event log, tolerating a torn or corrupt tail (the
    /// valid prefix is what you get; check [`StoredRun::tail`]). Frames
    /// decode straight into the run's columns.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let bytes = std::fs::read(dir.join(LOG_FILE))?;
        let mut meta = None;
        let (mut events, mut samples, mut snaps, mut end_tick) =
            (Vec::new(), Vec::new(), Vec::new(), None);
        let tail = log::decode_each(&bytes, |rec, _| match rec {
            LogRecord::Meta {
                config_hash,
                seed,
                tick_s,
                snap_every,
                trace_cap,
                label,
            } => meta = Some((label, seed, config_hash, tick_s, snap_every, trace_cap)),
            LogRecord::Event { tick, event } => events.push((tick, event)),
            LogRecord::Sample {
                tick,
                t,
                coverage,
                nonfunctional,
                alive,
            } => samples.push(StoredSample {
                tick,
                t,
                coverage,
                nonfunctional,
                alive,
            }),
            LogRecord::Snap { tick, bytes, hash } => snaps.push(SnapMarker { tick, bytes, hash }),
            LogRecord::End { tick } => end_tick = Some(tick),
        })?;
        // The meta rule admits a meta record only as the first frame.
        let Some((label, seed, config_hash, tick_s, snap_every, trace_cap)) = meta else {
            return Err(StoreError::Corrupt("log has no meta record".into()));
        };
        Ok(Self {
            dir,
            label,
            seed,
            config_hash,
            tick_s,
            snap_every,
            trace_cap,
            events,
            samples,
            snaps,
            end_tick,
            tail,
        })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run's label (the sweep grid-point label, or empty). Falls back
    /// to the directory name when empty, so query hits stay identifiable.
    pub fn name(&self) -> String {
        if self.label.is_empty() {
            self.dir
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| self.dir.display().to_string())
        } else {
            self.label.clone()
        }
    }

    /// The run's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `SimConfig::content_hash` of the recorded config.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Tick length (s) of the recorded config.
    pub fn tick_s(&self) -> f64 {
        self.tick_s
    }

    /// The recorder's snapshot-chain interval.
    pub fn snap_every(&self) -> u64 {
        self.snap_every
    }

    /// The recorder's trace cap.
    pub fn trace_cap(&self) -> u64 {
        self.trace_cap
    }

    /// The recorded trace events as `(tick, event)`, in emission order.
    pub fn events(&self) -> &[(u64, crate::TraceEvent)] {
        &self.events
    }

    /// The recorded metrics samples, in time order.
    pub fn samples(&self) -> &[StoredSample] {
        &self.samples
    }

    /// The snapshot-chain markers, in tick order.
    pub fn snapshots(&self) -> &[SnapMarker] {
        &self.snaps
    }

    /// The final tick when the run was sealed, `None` for a log that ends
    /// mid-run (crash, or recording still in progress).
    pub fn end_tick(&self) -> Option<u64> {
        self.end_tick
    }

    /// How the log's tail decoded (damage never hides the valid prefix).
    pub fn tail(&self) -> &Tail {
        &self.tail
    }

    /// The last tick the store can materialize: the sealed end tick, or
    /// the newest frame's tick for an unsealed log.
    pub fn last_tick(&self) -> u64 {
        self.end_tick.unwrap_or_else(|| {
            let e = self.events.last().map(|(t, _)| *t).unwrap_or(0);
            let s = self.samples.last().map(|s| s.tick).unwrap_or(0);
            let n = self.snaps.last().map(|s| s.tick).unwrap_or(0);
            e.max(s).max(n)
        })
    }

    /// Materializes the world at `tick`: loads the nearest verified
    /// snapshot-chain link at or before `tick` and replays the remaining
    /// ticks. Corrupt links fall back to the next-older one — replay just
    /// gets longer, never wrong.
    pub fn materialize(&self, tick: u64) -> Result<World, StoreError> {
        let last = self.last_tick();
        if tick > last {
            return Err(StoreError::OutOfRange { tick, last });
        }
        let (base, blob) = self
            .snaps
            .iter()
            .rev()
            .filter(|m| m.tick <= tick)
            .find_map(|m| Some((m.tick, read_snap(&self.dir, m.tick, m.bytes, m.hash)?)))
            .ok_or_else(|| {
                StoreError::Corrupt("no verifiable snapshot at or before the requested tick".into())
            })?;
        replay(&blob, base, tick)
    }

    /// Like [`StoredRun::materialize`] but always replays from the tick-0
    /// link — the full-replay reference the CI smoke job `cmp`s the
    /// nearest-snapshot path against.
    pub fn materialize_from_zero(&self, tick: u64) -> Result<World, StoreError> {
        let last = self.last_tick();
        if tick > last {
            return Err(StoreError::OutOfRange { tick, last });
        }
        let zero = self
            .snaps
            .iter()
            .find(|m| m.tick == 0)
            .ok_or_else(|| StoreError::Corrupt("no tick-0 snapshot link".into()))?;
        let blob = read_snap(&self.dir, 0, zero.bytes, zero.hash)
            .ok_or_else(|| StoreError::Corrupt("tick-0 snapshot link fails verification".into()))?;
        replay(&blob, 0, tick)
    }
}

/// Resumes the verified link `blob` (captured at tick `base`) and
/// re-steps it to `tick`.
fn replay(blob: &[u8], base: u64, tick: u64) -> Result<World, StoreError> {
    let mut world = World::resume(blob)?;
    for _ in base..tick {
        world.step();
    }
    Ok(world)
}

/// A collection of stored runs under one root, with cross-run queries.
#[derive(Debug)]
pub struct RunStore {
    root: PathBuf,
    runs: Vec<StoredRun>,
}

impl RunStore {
    /// Opens every run directory beneath `root` (any directory holding an
    /// `events.log`, found by a bounded recursive walk). Unreadable run
    /// dirs are skipped rather than failing the whole store.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let mut dirs = Vec::new();
        find_run_dirs(&root, 0, &mut dirs)?;
        dirs.sort();
        let runs = dirs
            .iter()
            .filter_map(|d| StoredRun::open(d).ok())
            .collect();
        Ok(Self { root, runs })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The opened runs, sorted by directory path.
    pub fn runs(&self) -> &[StoredRun] {
        &self.runs
    }

    /// The run whose label or directory name equals `name`.
    pub fn run(&self, name: &str) -> Option<&StoredRun> {
        self.runs.iter().find(|r| r.name() == name)
    }

    /// Scans every run for frames matching `pred`; hits come back grouped
    /// by run (directory order), tick-ordered within a run.
    pub fn scan(&self, pred: &Predicate) -> Vec<Hit> {
        let mut hits = Vec::new();
        for run in &self.runs {
            query::scan_run(run, pred, &mut hits);
        }
        hits
    }

    /// [`RunStore::scan`] truncated to the first `limit` hits.
    pub fn select(&self, pred: &Predicate, limit: usize) -> Vec<Hit> {
        let mut hits = self.scan(pred);
        hits.truncate(limit);
        hits
    }
}

/// Depth-bounded recursive search for directories holding an `events.log`.
fn find_run_dirs(dir: &Path, depth: usize, out: &mut Vec<PathBuf>) -> Result<(), StoreError> {
    if dir.join(LOG_FILE).is_file() {
        out.push(dir.to_path_buf());
        return Ok(());
    }
    if depth >= 4 || !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            find_run_dirs(&path, depth + 1, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frame, FaultConfig, SimConfig, TargetMobility};

    /// The decode-then-split open `StoredRun::open` replaced: the whole
    /// log into a record vector first, then the vector into columns.
    fn open_reference(dir: &Path) -> Result<StoredRun, StoreError> {
        let bytes = std::fs::read(dir.join(LOG_FILE))?;
        let decoded = log::decode(&bytes)?;
        let Some(LogRecord::Meta {
            config_hash,
            seed,
            tick_s,
            snap_every,
            trace_cap,
            label,
        }) = decoded.records.first().cloned()
        else {
            return Err(StoreError::Corrupt("log has no meta record".into()));
        };
        let (mut events, mut samples, mut snaps, mut end_tick) =
            (Vec::new(), Vec::new(), Vec::new(), None);
        for rec in &decoded.records[1..] {
            match *rec {
                LogRecord::Event { tick, event } => events.push((tick, event)),
                LogRecord::Sample {
                    tick,
                    t,
                    coverage,
                    nonfunctional,
                    alive,
                } => samples.push(StoredSample {
                    tick,
                    t,
                    coverage,
                    nonfunctional,
                    alive,
                }),
                LogRecord::Snap { tick, bytes, hash } => {
                    snaps.push(SnapMarker { tick, bytes, hash })
                }
                LogRecord::End { tick } => end_tick = Some(tick),
                LogRecord::Meta { .. } => unreachable!("decode rejects interior meta frames"),
            }
        }
        Ok(StoredRun {
            dir: dir.to_path_buf(),
            label,
            seed,
            config_hash,
            tick_s,
            snap_every,
            trace_cap,
            events,
            samples,
            snaps,
            end_tick,
            tail: decoded.tail,
        })
    }

    /// Every field of an open, or the error's text.
    fn summary(run: Result<StoredRun, StoreError>) -> String {
        match run {
            Ok(r) => format!(
                "{} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?}",
                r.label,
                r.seed,
                r.config_hash,
                r.tick_s.to_bits(),
                r.snap_every,
                r.trace_cap,
                r.events,
                r.samples,
                r.snaps,
                r.end_tick,
                r.tail
            ),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn open_matches_decode_then_split_on_damaged_logs() {
        let dir = std::env::temp_dir().join(format!("wrsn-store-open-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SimConfig::small(0.1);
        cfg.num_sensors = 30;
        cfg.num_targets = 3;
        cfg.field_side = 50.0;
        cfg.initial_soc = (0.3, 1.0);
        cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
        cfg.faults = FaultConfig {
            uplink_loss: 0.3,
            transients_per_day: 6.0,
            ..FaultConfig::none()
        };
        let opts = RecordOptions {
            snap_every: 40,
            trace_cap: 64,
            label: "open".into(),
        };
        RunRecorder::create(&dir, cfg, 3, opts)
            .and_then(|mut rec| rec.run())
            .expect("record");
        let clean = std::fs::read(dir.join(LOG_FILE)).expect("log");
        let decoded = log::decode(&clean).expect("decode");
        assert!(decoded.records.len() > 20, "a log worth damaging");
        let ends: Vec<usize> = decoded.ends.iter().map(|&e| e as usize).collect();
        let mid = ends[ends.len() / 2];

        let mut flipped = clean.clone();
        flipped[mid + 6] ^= 0x10; // inside the next frame's payload
        let missing_meta = [&clean[..frame::HEADER_LEN], &clean[ends[0]..]].concat();
        let duplicate_meta = [&clean[..mid], &clean[frame::HEADER_LEN..]].concat();
        let cases: [(&str, Vec<u8>); 6] = [
            ("clean", clean.clone()),
            ("torn", clean[..mid + 5].to_vec()),
            ("torn at the header", clean[..frame::HEADER_LEN].to_vec()),
            ("checksum-corrupt", flipped),
            ("missing meta", missing_meta),
            ("duplicate meta", duplicate_meta),
        ];
        for (what, bytes) in cases {
            std::fs::write(dir.join(LOG_FILE), &bytes).expect("write");
            let (fast, reference) = (StoredRun::open(&dir), open_reference(&dir));
            assert_eq!(summary(fast), summary(reference), "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
