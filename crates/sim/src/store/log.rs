//! The run store's append-only event log: trace events, per-sample
//! metrics and snapshot-chain markers as [`crate::frame`] records under
//! the `WRSNEVTL` magic (DESIGN.md §4h; the header, frame format and
//! damage model are the shared codec's, §4k).
//!
//! Each frame's payload starts with a one-byte kind tag ([`LogRecord`]);
//! every `f64` is stored as its IEEE-754 bit pattern. On top of the
//! shared damage model the log has one rule of its own, enforced by
//! [`decode`]: the first frame is a [`LogRecord::Meta`] and no other frame
//! is, so a log that does not start with its run's identity — or two logs
//! concatenated — ends its valid prefix there with a corrupt tail.
//!
//! Because a recorded run is deterministic, the events after the last
//! snapshot marker in a damaged log can always be regenerated by replay —
//! [`crate::store::RunRecorder::resume`] truncates to the last marker and
//! re-steps, producing a byte-identical log.

use crate::codec::codec_enum;
use crate::frame::{self, Decoded, Record, Tail, Writer};
use crate::snapshot::SnapshotError;
use crate::TraceEvent;
use std::path::Path;

/// The event log's file name inside a run directory.
pub const LOG_FILE: &str = "events.log";

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// The log's header record (always the first frame): identifies the
    /// recorded run and the recorder's settings, so replays and resumed
    /// recordings can validate they are talking about the same run.
    Meta {
        /// [`crate::SimConfig::content_hash`] of the recorded config (the
        /// full config lives in every snapshot of the chain).
        config_hash: u64,
        /// The run's seed.
        seed: u64,
        /// The config's tick length (s) — converts event times to ticks.
        tick_s: f64,
        /// Snapshot-chain interval, in ticks.
        snap_every: u64,
        /// The trace cap the recorder enabled on the world. A live twin
        /// must use the same cap for byte-identical snapshots.
        trace_cap: u64,
        /// Free-form run label (a sweep's grid-point label, or empty).
        label: String,
    },
    /// One trace event, stamped with the tick that produced it.
    Event {
        /// Tick index (number of completed steps) when the event fired.
        tick: u64,
        /// The event, encoded exactly as the snapshot codec does.
        event: TraceEvent,
    },
    /// One metrics sample from the world's sample phase.
    Sample {
        /// Tick index of the sample.
        tick: u64,
        /// Simulation time (s) of the sample.
        t: f64,
        /// Coverage ratio in [0, 1].
        coverage: f64,
        /// Nonfunctional fraction in [0, 1].
        nonfunctional: f64,
        /// Sensors alive (stored as the f64 the metrics series holds).
        alive: f64,
    },
    /// A snapshot-chain marker: a `WRSNSNAP` file for `tick` was written
    /// next to the log. The length + hash let materialization detect a
    /// corrupt snapshot file and fall back to an earlier link.
    Snap {
        /// Tick the snapshot captures.
        tick: u64,
        /// Byte length of the snapshot file.
        bytes: u64,
        /// FNV-1a 64 hash of the snapshot file's bytes.
        hash: u64,
    },
    /// The run completed; written once by [`crate::store::RunRecorder`]
    /// when the world finishes. A log without it ends mid-run.
    End {
        /// The final tick.
        tick: u64,
    },
}

codec_enum! { LogRecord, "log-record";
    0 => Meta { config_hash, seed, tick_s, snap_every, trace_cap, label },
    1 => Event { tick, event },
    2 => Sample { tick, t, coverage, nonfunctional, alive },
    3 => Snap { tick, bytes, hash },
    4 => End { tick },
}

impl Record for LogRecord {
    const MAGIC: [u8; 8] = *b"WRSNEVTL";
    const VERSION: u32 = 1;
}

/// Decodes a whole log file's bytes into its longest valid prefix
/// ([`frame::decode`]) under the log's meta rule: the prefix ends at the
/// first frame that breaks it, with a corrupt tail.
pub fn decode(bytes: &[u8]) -> Result<Decoded<LogRecord>, SnapshotError> {
    let (mut records, mut ends) = (Vec::new(), Vec::new());
    let tail = decode_each(bytes, |rec, end| {
        records.push(rec);
        ends.push(end);
    })?;
    Ok(Decoded {
        records,
        ends,
        tail,
    })
}

/// [`decode`] without the record vector: hands each record of the valid
/// prefix, meta rule applied, to `take(record, end)` (`end` is the byte
/// offset just past its frame) and returns how the log ended.
pub(crate) fn decode_each(
    bytes: &[u8],
    mut take: impl FnMut(LogRecord, u64),
) -> Result<Tail, SnapshotError> {
    let mut first = true;
    frame::decode_each(bytes, |rec: LogRecord, start, end| {
        if first != matches!(rec, LogRecord::Meta { .. }) {
            return Err(match first {
                true => "first frame is not a meta record".into(),
                false => format!("duplicate meta frame at offset {start}"),
            });
        }
        first = false;
        take(rec, end);
        Ok(())
    })
}

/// Append-only log writer: buffers frames per flush group (one tick) and
/// flushes them to the OS explicitly, so a crash can only tear the final
/// group.
///
/// Public so tests and tooling can author synthetic logs (the cross-run
/// query suite hand-builds corpora this way); normal recording goes
/// through [`crate::store::RunRecorder`].
pub type LogWriter = Writer<LogRecord, std::fs::File>;

impl LogWriter {
    /// Creates (truncating) `path` and writes the file header plus the
    /// mandatory leading `meta` record.
    pub fn create(path: impl AsRef<Path>, meta: &LogRecord) -> std::io::Result<Self> {
        assert!(
            matches!(meta, LogRecord::Meta { .. }),
            "a log must start with a meta record"
        );
        let mut w = Self::new(std::fs::File::create(path)?);
        w.push(meta);
        w.flush()?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::{RvId, SensorId};

    fn meta() -> LogRecord {
        LogRecord::Meta {
            config_hash: 0xDEAD_BEEF,
            seed: 7,
            tick_s: 60.0,
            snap_every: 100,
            trace_cap: 512,
            label: "unit/seed=7".into(),
        }
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            meta(),
            LogRecord::Snap {
                tick: 0,
                bytes: 123,
                hash: 42,
            },
            LogRecord::Event {
                tick: 3,
                event: TraceEvent::Dispatch {
                    t: 180.0,
                    rv: RvId(1),
                    stops: 4,
                    demand_j: 5_000.0,
                },
            },
            LogRecord::Sample {
                tick: 5,
                t: 300.0,
                coverage: 0.875,
                nonfunctional: 0.0,
                alive: 40.0,
            },
            LogRecord::Event {
                tick: 9,
                event: TraceEvent::SensorDepleted {
                    t: 540.0,
                    sensor: SensorId(17),
                },
            },
            LogRecord::End { tick: 10 },
        ]
    }

    #[test]
    fn round_trips_cleanly() {
        let recs = sample_records();
        let decoded = decode(&frame::encode(&recs)).expect("decode");
        assert_eq!(decoded.tail, Tail::Clean);
        assert_eq!(decoded.records, recs);
        assert_eq!(decoded.ends.len(), recs.len());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            decode(b"NOTALOGXxxxx"),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = frame::encode(&sample_records());
        bytes[LogRecord::MAGIC.len()..frame::HEADER_LEN]
            .copy_from_slice(&(LogRecord::VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        assert!(matches!(decode(b"WRSNEV"), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn checksum_damage_is_detected_and_prefix_survives() {
        let recs = sample_records();
        let bytes = frame::encode(&recs);
        // Flip one byte inside the fourth frame's payload.
        let mut damaged = bytes.clone();
        let target = {
            let decoded = decode(&bytes).unwrap();
            decoded.ends[2] as usize + 6 // inside frame 3's payload
        };
        damaged[target] ^= 0x40;
        let decoded = decode(&damaged).expect("header intact");
        assert!(matches!(decoded.tail, Tail::Corrupt(_)), "{decoded:?}");
        assert_eq!(decoded.records, recs[..3].to_vec(), "prefix stands");
    }

    #[test]
    fn non_meta_first_frame_is_corrupt() {
        let bytes = frame::encode(&[LogRecord::End { tick: 1 }]);
        let decoded = decode(&bytes).unwrap();
        assert!(matches!(decoded.tail, Tail::Corrupt(_)));
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn interior_meta_frame_ends_the_prefix() {
        // Two logs concatenated: the second one's meta frame is where the
        // valid prefix stops.
        let recs = sample_records();
        let bytes = frame::encode(&[recs.clone(), recs.clone()].concat());
        let decoded = decode(&bytes).unwrap();
        assert!(matches!(decoded.tail, Tail::Corrupt(_)), "{decoded:?}");
        assert_eq!(decoded.records, recs);
        assert_eq!(decoded.ends.len(), recs.len());
    }

    #[test]
    fn writer_produces_decodable_files() {
        let dir = std::env::temp_dir().join(format!("wrsn-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_FILE);
        let recs = sample_records();
        let mut w = LogWriter::create(&path, &recs[0]).unwrap();
        for r in &recs[1..] {
            w.push(r);
        }
        w.flush().unwrap();
        let decoded = decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(decoded.tail, Tail::Clean);
        assert_eq!(decoded.records, recs);
        std::fs::remove_dir_all(&dir).ok();
    }
}
