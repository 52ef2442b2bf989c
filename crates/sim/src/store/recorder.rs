//! Recording a run into the store: a [`RunRecorder`] owns a live
//! [`World`], drains its trace and metrics tails into the event log after
//! every step, and drops a `WRSNSNAP` link into the snapshot chain every
//! `snap_every` ticks.
//!
//! The recorder is a pure *observer*: it never reaches into the engine, so
//! a recorded run steps through exactly the same states as an unrecorded
//! one (the determinism contract's first half). The second half — that a
//! stored run can be re-materialized bitwise-identically — follows from
//! the snapshot codec's proven resume guarantee plus the engine's
//! determinism, and is enforced by `tests/store_properties.rs`.

use super::log::{LogRecord, LogWriter, LOG_FILE};
use super::StoreError;
use crate::codec::fnv1a;
use crate::frame::Writer;
use crate::{SimConfig, World};
use std::path::{Path, PathBuf};

/// Knobs for a recording.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// Ticks between snapshot-chain links (tick 0 and the final tick are
    /// always captured). Default 1440 — one link per simulated day at the
    /// paper's 60 s tick.
    pub snap_every: u64,
    /// Trace cap enabled on the recorded world. Part of the snapshot
    /// bytes, so a live twin must match it (stored in the log's meta
    /// record for exactly that reason). Default 65 536.
    pub trace_cap: usize,
    /// Free-form run label (a sweep grid-point label, or empty).
    pub label: String,
}

impl Default for RecordOptions {
    fn default() -> Self {
        Self {
            snap_every: 1440,
            trace_cap: 65_536,
            label: String::new(),
        }
    }
}

/// The file name of the snapshot-chain link capturing `tick`.
pub fn snap_file_name(tick: u64) -> String {
    format!("snap-{tick:010}.snap")
}

/// Records a live run into a store directory as it steps.
#[derive(Debug)]
pub struct RunRecorder {
    dir: PathBuf,
    world: World,
    log: LogWriter,
    tick: u64,
    snap_every: u64,
    /// Trace drain cursor: `Trace::total_recorded` as of the last drain.
    event_cursor: u64,
    /// Metrics drain cursor: coverage-series length as of the last drain.
    sample_cursor: usize,
    last_snap_tick: u64,
    sealed: bool,
}

impl RunRecorder {
    /// Starts recording a fresh run of `cfg` under `dir` (created if
    /// missing, truncating any previous log there).
    pub fn create(
        dir: impl AsRef<Path>,
        cfg: SimConfig,
        seed: u64,
        opts: RecordOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let snap_every = opts.snap_every.max(1);
        let mut world = World::new(&cfg, seed);
        world.enable_trace(opts.trace_cap);
        let meta = LogRecord::Meta {
            config_hash: world.config().content_hash(),
            seed,
            tick_s: world.config().tick_s,
            snap_every,
            trace_cap: opts.trace_cap as u64,
            label: opts.label,
        };
        let log = LogWriter::create(dir.join(LOG_FILE), &meta)?;
        let mut rec = Self {
            dir,
            world,
            log,
            tick: 0,
            snap_every,
            event_cursor: 0,
            sample_cursor: 0,
            last_snap_tick: u64::MAX,
            sealed: false,
        };
        rec.drain();
        rec.write_snapshot()?;
        rec.log.flush()?;
        Ok(rec)
    }

    /// Resumes recording a run whose process died mid-way: decodes the
    /// log's valid prefix, truncates it back to its last *verified*
    /// snapshot-chain link (checksums of both the marker and the snapshot
    /// file must agree), resumes the world from that link and appends.
    ///
    /// Because the engine is deterministic, the re-stepped frames are
    /// byte-identical to the ones the truncation discarded.
    pub fn resume(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let log_path = dir.join(LOG_FILE);
        let bytes = std::fs::read(&log_path)?;
        let decoded = super::log::decode(&bytes)?;
        let (snap_every, trace_cap) = match decoded.records.first() {
            Some(LogRecord::Meta {
                snap_every,
                trace_cap,
                ..
            }) => (*snap_every, *trace_cap),
            _ => {
                return Err(StoreError::Corrupt(
                    "log has no meta record to resume from".into(),
                ))
            }
        };
        // Walk snap markers newest-first until one's file verifies.
        let (idx, tick, blob) = decoded
            .records
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, rec)| match *rec {
                LogRecord::Snap { tick, bytes, hash } => {
                    Some((i, tick, read_snap(&dir, tick, bytes, hash)?))
                }
                _ => None,
            })
            .ok_or_else(|| {
                StoreError::Corrupt("no verifiable snapshot-chain link to resume from".into())
            })?;
        let world = World::resume(&blob)?;
        if world.trace().cap() as u64 != trace_cap {
            return Err(StoreError::Corrupt(format!(
                "snapshot trace cap {} disagrees with the log meta's {trace_cap}",
                world.trace().cap()
            )));
        }
        // Drop every frame after the chosen marker, then append.
        let keep = decoded.ends[idx];
        let file = std::fs::OpenOptions::new().append(true).open(&log_path)?;
        file.set_len(keep)?;
        let log = Writer::append(file);
        let event_cursor = world.trace().total_recorded();
        let sample_cursor = world.metrics().coverage_series().len();
        Ok(Self {
            dir,
            world,
            log,
            tick,
            snap_every: snap_every.max(1),
            event_cursor,
            sample_cursor,
            last_snap_tick: tick,
            sealed: false,
        })
    }

    /// The recorded world (read-only; mutating it outside [`Self::step`]
    /// would desynchronize the log).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Consumes the recorder and hands back the recorded world (to
    /// inspect its trace or outcome after sealing).
    pub fn into_world(self) -> World {
        self.world
    }

    /// Ticks completed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the recorded run has reached its configured duration.
    pub fn finished(&self) -> bool {
        self.world.finished()
    }

    /// Advances the world one tick and journals everything it emitted.
    pub fn step(&mut self) -> Result<(), StoreError> {
        assert!(!self.sealed, "recorder already sealed");
        self.world.step();
        self.tick += 1;
        self.drain();
        if self.tick.is_multiple_of(self.snap_every) {
            self.write_snapshot()?;
        }
        self.log.flush()?;
        Ok(())
    }

    /// Runs to completion and seals the store (final snapshot + end mark).
    pub fn run(&mut self) -> Result<(), StoreError> {
        while !self.world.finished() {
            self.step()?;
        }
        self.seal()
    }

    /// Writes the final snapshot-chain link and the end-of-run mark. Call
    /// once, after the run finished (or wherever recording should stop).
    pub fn seal(&mut self) -> Result<(), StoreError> {
        if self.sealed {
            return Ok(());
        }
        if self.last_snap_tick != self.tick {
            self.write_snapshot()?;
        }
        self.log.push(&LogRecord::End { tick: self.tick });
        self.log.flush()?;
        self.sealed = true;
        Ok(())
    }

    /// Journals the trace events and metrics samples the last step (or
    /// world construction) appended, using monotone cursors so nothing is
    /// double-counted.
    fn drain(&mut self) {
        let trace = self.world.trace();
        let total = trace.total_recorded();
        let fresh = (total - self.event_cursor) as usize;
        let retained = trace.events();
        // Events evicted before we saw them (cap smaller than one tick's
        // burst) are lost to the log exactly as they are to the trace.
        let start = retained.len().saturating_sub(fresh);
        let events: Vec<_> = retained[start..].to_vec();
        for event in events {
            self.log.push(&LogRecord::Event {
                tick: self.tick,
                event,
            });
        }
        self.event_cursor = total;

        let m = self.world.metrics();
        let (cov, non, op) = (
            m.coverage_series(),
            m.nonfunctional_series(),
            m.operational_series(),
        );
        let mut samples = Vec::new();
        for i in self.sample_cursor..cov.len() {
            samples.push(LogRecord::Sample {
                tick: self.tick,
                t: cov.times()[i],
                coverage: cov.values()[i],
                nonfunctional: non.values().get(i).copied().unwrap_or(0.0),
                alive: op.values().get(i).copied().unwrap_or(0.0),
            });
        }
        self.sample_cursor = cov.len();
        for s in samples {
            self.log.push(&s);
        }
    }

    /// Writes the current world as a snapshot-chain link plus its marker.
    fn write_snapshot(&mut self) -> Result<(), StoreError> {
        let blob = self.world.save_snapshot();
        let path = self.dir.join(snap_file_name(self.tick));
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &blob)?;
        std::fs::rename(&tmp, &path)?;
        self.log.push(&LogRecord::Snap {
            tick: self.tick,
            bytes: blob.len() as u64,
            hash: fnv1a(&blob),
        });
        self.last_snap_tick = self.tick;
        Ok(())
    }
}

/// The snapshot file for `tick`, read once: its bytes when it exists and
/// matches its marker's length + FNV-1a hash.
pub(super) fn read_snap(dir: &Path, tick: u64, bytes: u64, hash: u64) -> Option<Vec<u8>> {
    let blob = std::fs::read(dir.join(snap_file_name(tick))).ok()?;
    (blob.len() as u64 == bytes && fnv1a(&blob) == hash).then_some(blob)
}
