//! Corruption fuzzing for the framed-record codec, run case by case
//! against both of its codecs: the run store's `WRSNEVTL` event log and
//! the sweep fabric's `WRSNFAB1` agent stream.
//!
//! Whatever bytes arrive — truncation at any offset, random bit flips,
//! partial delivery, foreign headers, garbage tails — decoding must never
//! panic, must flag the damage, and must keep the longest valid frame
//! prefix. Decoded prefixes are compared by their re-encoded bytes, so a
//! record that decodes to the right kind with the wrong contents fails
//! too. The blocking streaming reader must agree with the pure decoder on
//! every input.

use wrsn_sim::batch::JobSpec;
use wrsn_sim::fabric::wire::{Assign, Msg};
use wrsn_sim::frame::{self, Decoded, Reader, Record, Tail, HEADER_LEN, MAX_FRAME};
use wrsn_sim::journal::grid_hash;
use wrsn_sim::snapshot::SnapshotError;
use wrsn_sim::store::{log, LogRecord, RecordOptions, RunRecorder, LOG_FILE};
use wrsn_sim::SimConfig;

/// Tiny deterministic RNG so the fuzz positions are reproducible.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One codec under test: a realistic corpus of its records and the
/// decoder its readers use in production.
trait Codec {
    type R: Record;
    fn corpus() -> Vec<Self::R>;
    fn decode(bytes: &[u8]) -> Result<Decoded<Self::R>, SnapshotError>;
}

/// The event log of a short recorded chaos run (trace events, samples,
/// snapshot markers and the end mark).
struct LogCodec;

impl Codec for LogCodec {
    type R = LogRecord;

    fn corpus() -> Vec<LogRecord> {
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
        let dir = std::env::temp_dir().join(format!(
            "wrsn-frame-fuzz-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let opts = RecordOptions {
            snap_every: 60,
            trace_cap: 512,
            label: "fuzz".into(),
        };
        let mut rec = RunRecorder::create(&dir, cfg, 7, opts).expect("create");
        rec.run().expect("record");
        let bytes = std::fs::read(dir.join(LOG_FILE)).expect("log");
        std::fs::remove_dir_all(&dir).ok();
        let decoded = log::decode(&bytes).expect("decode the recording");
        assert_eq!(decoded.tail, Tail::Clean);
        let kinds: std::collections::HashSet<_> =
            decoded.records.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 5, "the corpus must hold every record kind");
        decoded.records
    }

    fn decode(bytes: &[u8]) -> Result<Decoded<LogRecord>, SnapshotError> {
        log::decode(bytes)
    }
}

/// A two-way conversation's worth of messages, including a full `Assign`
/// (the largest, deepest-nested frame the protocol has).
struct WireCodec;

impl Codec for WireCodec {
    type R = Msg;

    fn corpus() -> Vec<Msg> {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| {
                let mut cfg = SimConfig::small(0.25);
                cfg.num_sensors = 12 + i;
                JobSpec::new(format!("fuzz-job-{i}"), &cfg, 90 + i as u64)
            })
            .collect();
        let hash = grid_hash(&jobs);
        vec![
            Msg::Assign(Box::new(Assign {
                shard: 3,
                attempt: 1,
                grid_hash: hash,
                threads: 2,
                retries: 3,
                retry_backoff_s: 0.2,
                timeout_s: -1.0,
                sim_time_cap_s: 7200.0,
                stall: false,
                abort_after_ms: 0,
                jobs,
                prior_journal: "meta {\"v\":1}\ndone {\"index\":0}\n".into(),
            })),
            Msg::Accept { shard: 3 },
            Msg::Heartbeat { counter: 1 },
            Msg::JournalLines {
                text: "done {\"index\":1}\n".into(),
            },
            Msg::Refuse {
                reason: "busy".into(),
            },
            Msg::Done {
                ok: true,
                error: String::new(),
            },
        ]
    }

    fn decode(bytes: &[u8]) -> Result<Decoded<Msg>, SnapshotError> {
        frame::decode(bytes)
    }
}

/// The stream bytes up to the end of the first `n` frames.
fn prefix_end(ends: &[u64], n: usize) -> usize {
    match n {
        0 => HEADER_LEN,
        n => ends[n - 1] as usize,
    }
}

/// Asserts that `decoded` re-encodes to exactly the bytes of `original`
/// it claims to cover.
fn assert_reencodes<R: Record>(decoded: &Decoded<R>, original: &[u8], what: &str) {
    let end = prefix_end(&decoded.ends, decoded.records.len());
    assert!(
        frame::encode(&decoded.records) == original[..end],
        "{what}: decoded prefix does not re-encode to the original bytes"
    );
}

/// A `Read` that hands out the bytes in small random chunks, the way a
/// socket delivers them.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: XorShift,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below(97))
            .min(out.len())
            .min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Reads `bytes` through the streaming reader to its end and asserts it
/// agrees with the pure decoder: the same records, a clean EOF exactly
/// when the pure tail is clean, and an error when the header is bad.
fn assert_reader_agrees<R: Record>(bytes: &[u8], seed: u64, what: &str) {
    let mut reader = Reader::<R, _>::new(Trickle {
        bytes,
        rng: XorShift(seed | 1),
    });
    let mut got = Vec::new();
    let end = loop {
        match reader.recv() {
            Ok(Some(rec)) => got.push(rec),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    match frame::decode::<R>(bytes) {
        Ok(pure) => {
            assert!(
                frame::encode(&got) == frame::encode(&pure.records),
                "{what}: reader and decoder disagree on the records"
            );
            assert_eq!(
                end.is_ok(),
                pure.tail == Tail::Clean,
                "{what}: reader ended {end:?}, decoder {:?}",
                pure.tail
            );
        }
        Err(e) => {
            assert!(got.is_empty(), "{what}: reader accepted a bad header");
            assert!(end.is_err(), "{what}: reader missed header damage {e}");
        }
    }
}

fn truncation_at_every_byte_offset<C: Codec>() {
    let bytes = frame::encode(&C::corpus());
    let full = C::decode(&bytes).expect("full decode");
    assert_eq!(full.tail, Tail::Clean);
    assert_reencodes(&full, &bytes, "full stream");

    for cut in 0..bytes.len() {
        match C::decode(&bytes[..cut]) {
            Ok(decoded) => {
                assert!(cut >= HEADER_LEN, "a cut inside the header must hard-error");
                // Any successful decode is a frame prefix of the full
                // stream — never reordered, never invented.
                assert_eq!(decoded.ends, full.ends[..decoded.ends.len()]);
                assert_reencodes(&decoded, &bytes, &format!("cut at {cut}"));
                // A cut on a frame boundary is clean, anywhere else torn.
                let on_boundary = prefix_end(&decoded.ends, decoded.records.len()) == cut;
                match decoded.tail {
                    Tail::Clean => assert!(on_boundary, "cut at {cut} claims clean"),
                    Tail::Torn => assert!(!on_boundary, "cut at {cut} claims torn"),
                    Tail::Corrupt(why) => {
                        panic!("cut at {cut} misread truncation as corruption: {why}")
                    }
                }
            }
            Err(e) => {
                assert!(cut < HEADER_LEN, "cut at {cut} hard-errored: {e:?}");
                assert!(matches!(e, SnapshotError::Truncated), "{e:?}");
            }
        }
    }
}

fn streaming_reader_agrees_on_every_prefix<C: Codec>() {
    let bytes = frame::encode(&C::corpus());
    for cut in 0..=bytes.len() {
        assert_reader_agrees::<C::R>(&bytes[..cut], cut as u64, &format!("cut at {cut}"));
    }
}

fn random_bit_flips_never_decode_clean<C: Codec>() {
    let bytes = frame::encode(&C::corpus());
    let full = C::decode(&bytes).expect("full decode");
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);

    for _ in 0..1000 {
        let mut damaged = bytes.clone();
        let pos = rng.below(damaged.len());
        damaged[pos] ^= 1 << rng.below(8);
        let what = format!("flip at byte {pos}");

        match C::decode(&damaged) {
            Ok(decoded) => {
                assert!(pos >= HEADER_LEN, "{what}: header damage must hard-error");
                assert_ne!(decoded.tail, Tail::Clean, "{what} was not detected");
                // Frames ending at or before the flip decode untouched;
                // the damaged frame and everything after it are dropped.
                let intact = full.ends.iter().filter(|&&e| e <= pos as u64).count();
                assert_eq!(decoded.records.len(), intact, "{what}: wrong prefix length");
                assert_reencodes(&decoded, &bytes, &what);
            }
            Err(e) => {
                assert!(
                    pos < HEADER_LEN,
                    "{what} hard-errored past the header: {e:?}"
                );
                assert!(matches!(
                    e,
                    SnapshotError::BadMagic { .. } | SnapshotError::UnsupportedVersion { .. }
                ));
            }
        }
        assert_reader_agrees::<C::R>(&damaged, pos as u64, &what);
    }
}

/// A receiver sees the stream grow in arbitrary chunks; every prefix must
/// decode to a monotonically growing frame prefix (partial frames held
/// back, complete ones released — no rollback, no spurious corruption).
fn partial_delivery_decodes_monotonically<C: Codec>() {
    let bytes = frame::encode(&C::corpus());
    let full = C::decode(&bytes).expect("full decode");
    let mut rng = XorShift(0xfeed_beef);

    for _trial in 0..50 {
        let mut have = HEADER_LEN;
        let mut last = 0usize;
        while have < bytes.len() {
            have = (have + 1 + rng.below(97)).min(bytes.len());
            let decoded = C::decode(&bytes[..have]).expect("header is intact");
            assert!(
                decoded.records.len() >= last,
                "a longer prefix decoded fewer frames ({} < {last})",
                decoded.records.len()
            );
            assert_reencodes(&decoded, &bytes, &format!("{have} bytes delivered"));
            assert!(
                !matches!(decoded.tail, Tail::Corrupt(_)),
                "partial delivery misread as corruption at {have} bytes"
            );
            last = decoded.records.len();
        }
        assert_eq!(last, full.records.len(), "the whole stream must decode");
    }
}

fn foreign_headers_and_garbage_tails_are_flagged<C: Codec>() {
    let magic = <C::R as Record>::MAGIC;
    let version = <C::R as Record>::VERSION;

    // Foreign streams: another protocol on the port, the other framed
    // codec, a snapshot — all refused at the header.
    let foreign: [Vec<u8>; 3] = [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"WRSNSNAP\x01\0\0\0rest of a snapshot".to_vec(),
        if magic == LogRecord::MAGIC {
            frame::encode::<Msg>(&[Msg::Heartbeat { counter: 1 }])
        } else {
            frame::encode::<LogRecord>(&[LogRecord::End { tick: 1 }])
        },
    ];
    for bytes in &foreign {
        assert!(matches!(
            C::decode(bytes),
            Err(SnapshotError::BadMagic { expected }) if expected == magic
        ));
        assert_reader_agrees::<C::R>(bytes, 1, "foreign header");
    }

    // Our magic, a version from the future.
    let mut future = frame::encode::<C::R>(&[]);
    future[magic.len()..HEADER_LEN].copy_from_slice(&(version + 1).to_le_bytes());
    assert!(matches!(
        C::decode(&future),
        Err(SnapshotError::UnsupportedVersion { magic: m, found, expected })
            if m == magic && found == version + 1 && expected == version
    ));
    assert_reader_agrees::<C::R>(&future, 1, "future version");

    // A length beyond the frame bound is corruption at once, not a torn
    // frame waiting for 16 MiB that will never arrive.
    let mut huge = frame::encode::<C::R>(&[]);
    huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    assert!(matches!(C::decode(&huge).unwrap().tail, Tail::Corrupt(_)));
    assert_reader_agrees::<C::R>(&huge, 1, "oversized frame");

    // Valid frames followed by noise: the frames survive, the noise is
    // flagged (corrupt or torn, depending on what its length field
    // claims) and never panics.
    let bytes = frame::encode(&C::corpus());
    let full = C::decode(&bytes).expect("full decode");
    let mut rng = XorShift(0xdead_0001);
    for trial in 0..100 {
        let mut noisy = bytes.clone();
        for _ in 0..40 {
            noisy.push(rng.next() as u8);
        }
        let decoded = C::decode(&noisy).expect("header intact");
        assert_eq!(decoded.ends, full.ends, "trial {trial}: prefix lost");
        assert_reencodes(&decoded, &bytes, "noise tail");
        assert_ne!(decoded.tail, Tail::Clean, "noise tail must be flagged");
        assert_reader_agrees::<C::R>(&noisy, trial, "noise tail");
    }
}

/// Instantiates every case above once per codec, as `log_codec::<case>`
/// and `wire_codec::<case>`.
macro_rules! for_both_codecs {
    ($($case:ident),* $(,)?) => {
        mod log_codec {
            $(#[test] fn $case() { super::$case::<super::LogCodec>() })*
        }
        mod wire_codec {
            $(#[test] fn $case() { super::$case::<super::WireCodec>() })*
        }
    };
}

for_both_codecs!(
    truncation_at_every_byte_offset,
    streaming_reader_agrees_on_every_prefix,
    random_bit_flips_never_decode_clean,
    partial_delivery_decodes_monotonically,
    foreign_headers_and_garbage_tails_are_flagged,
);
