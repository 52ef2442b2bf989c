//! The framed-record codec (DESIGN.md §4k): one implementation of the
//! byte discipline shared by the run store's event log (`WRSNEVTL`,
//! [`crate::store::log`]) and the sweep fabric's agent stream
//! (`WRSNFAB1`, [`crate::fabric::wire`]).
//!
//! # Format
//!
//! ```text
//! [ magic (8 bytes) | version u32 ]                       header, once
//! [ len u32 | payload (len bytes) | fnv1a(payload) u64 ]  frame, repeated
//! ```
//!
//! all little-endian. A [`Record`] type names its magic and version and
//! encodes one payload with its [`crate::codec::Codec`]; everything else —
//! header, length bound, checksum, damage handling — lives here.
//!
//! # Damage model
//!
//! Only header damage is a hard error (there is no prefix to salvage).
//! Anything after the header degrades into a [`Tail`], never a panic, and
//! never hides the valid prefix before it:
//!
//! * bytes that end mid-frame (a `kill -9` mid-write, a severed socket)
//!   are [`Tail::Torn`];
//! * a frame whose length exceeds [`MAX_FRAME`], whose checksum does not
//!   match, or whose payload does not decode is [`Tail::Corrupt`] (a bit
//!   flip in a length field that makes the frame overrun the bytes reads
//!   as torn instead);
//! * bytes that end exactly on a frame boundary are [`Tail::Clean`].
//!
//! The blocking [`Reader`] used on live sockets funnels through the same
//! parser step as the pure [`decode`], so fuzzing byte buffers covers the
//! socket path too.

use std::io::{Read, Write};
use std::marker::PhantomData;

use crate::codec::{fnv1a, Codec, Dec, Enc};
use crate::snapshot::SnapshotError;

/// Length of the `magic | version` header that opens every framed
/// stream (and every `WRSNSNAP` snapshot).
pub const HEADER_LEN: usize = 12;
/// Sanity bound on one frame's payload: no legitimate record comes close,
/// so a bit-flipped length above it is reported as corruption at once
/// instead of being chased to the end of the bytes (or buffered off a
/// socket).
pub const MAX_FRAME: usize = 1 << 24;

/// One record type carried in frames: its [`Codec`] encodes one payload.
/// The caller rejects trailing bytes, and any decode error means the frame
/// is corrupt (its checksum matched, so it was written by a different
/// codec or the damage collided).
pub trait Record: Codec {
    /// Magic bytes opening the stream.
    const MAGIC: [u8; 8];
    /// Format version; bumped on any payload encoding change. Other
    /// versions are rejected, not migrated.
    const VERSION: u32;
}

/// The `magic | version` header.
pub(crate) fn header(magic: [u8; 8], version: u32) -> Vec<u8> {
    [&magic[..], &version.to_le_bytes()].concat()
}

/// Checks the `magic | version` header at the start of `bytes`.
pub(crate) fn check_header(
    bytes: &[u8],
    magic: [u8; 8],
    version: u32,
) -> Result<(), SnapshotError> {
    let mut d = Dec::new(bytes);
    if d.take(magic.len())? != magic {
        return Err(SnapshotError::BadMagic);
    }
    match d.u32()? {
        v if v == version => Ok(()),
        v => Err(SnapshotError::UnsupportedVersion(v)),
    }
}

/// Encodes a whole stream: the header, then one frame per record.
pub fn encode<R: Record>(records: &[R]) -> Vec<u8> {
    let mut w = Writer::<R, Vec<u8>>::new(Vec::new());
    for rec in records {
        w.push(rec);
    }
    w.enc.buf
}

/// How a decoded stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// Every byte parsed: the stream ends exactly on a frame boundary.
    Clean,
    /// The bytes end mid-frame — a crash mid-write or a severed link.
    Torn,
    /// A frame failed its length bound, checksum or payload decode (bit
    /// flip, mixed files); the reason is attached.
    Corrupt(String),
}

impl Tail {
    /// Whether the tail carries damage (torn or corrupt).
    pub fn is_damaged(&self) -> bool {
        !matches!(self, Tail::Clean)
    }
}

/// A decoded stream: the longest valid record prefix, where each record
/// ends, and how the bytes ended.
#[derive(Debug)]
pub struct Decoded<R> {
    /// The valid prefix, in stream order.
    pub records: Vec<R>,
    /// `ends[i]` is the byte offset just past record `i`'s frame (where a
    /// resumed writer truncates to).
    pub ends: Vec<u64>,
    /// How decoding stopped.
    pub tail: Tail,
}

/// One parser step over the bytes after the header.
enum Step<R> {
    /// No complete frame yet (possibly zero bytes).
    Need,
    /// A decoded record and the bytes its frame took.
    Complete(R, usize),
    /// Definite damage.
    Corrupt(String),
}

fn step<R: Record>(bytes: &[u8]) -> Step<R> {
    let mut d = Dec::new(bytes);
    let Ok(len) = d.u32() else {
        return Step::Need;
    };
    if len as usize > MAX_FRAME {
        return Step::Corrupt(format!("length {len} exceeds the {MAX_FRAME} bound"));
    }
    let (Ok(payload), Ok(stored)) = (d.take(len as usize), d.u64()) else {
        return Step::Need;
    };
    if fnv1a(payload) != stored {
        return Step::Corrupt(format!("checksum mismatch (stored {stored:#018x})"));
    }
    let mut d = Dec::new(payload);
    match R::get(&mut d).and_then(|rec| d.finish().map(|()| rec)) {
        Ok(rec) => Step::Complete(rec, 4 + payload.len() + 8),
        Err(e) => Step::Corrupt(format!("payload: {e}")),
    }
}

/// Decodes a whole stream's bytes into its longest valid prefix.
///
/// Errors only for damage before the first frame (a short, foreign or
/// other-version header); everything after it degrades into
/// [`Decoded::tail`].
pub fn decode<R: Record>(bytes: &[u8]) -> Result<Decoded<R>, SnapshotError> {
    let (mut records, mut ends) = (Vec::new(), Vec::new());
    let tail = decode_each(bytes, |rec, _, end| {
        records.push(rec);
        ends.push(end);
        Ok(())
    })?;
    Ok(Decoded {
        records,
        ends,
        tail,
    })
}

/// [`decode`] without the record vector: hands each record of the valid
/// prefix to `take(record, start, end)` with its frame's byte span, in
/// stream order, and returns how the bytes ended. A rule of the caller's
/// own ends the prefix the same way damage does: `take` returning
/// `Err(why)` stops the walk there with [`Tail::Corrupt`]`(why)`.
pub(crate) fn decode_each<R: Record>(
    bytes: &[u8],
    mut take: impl FnMut(R, u64, u64) -> Result<(), String>,
) -> Result<Tail, SnapshotError> {
    check_header(bytes, R::MAGIC, R::VERSION)?;
    let mut pos = HEADER_LEN;
    Ok(loop {
        if pos == bytes.len() {
            break Tail::Clean;
        }
        match step(&bytes[pos..]) {
            Step::Need => break Tail::Torn,
            Step::Complete(rec, used) => {
                if let Err(why) = take(rec, pos as u64, (pos + used) as u64) {
                    break Tail::Corrupt(why);
                }
                pos += used;
            }
            Step::Corrupt(why) => break Tail::Corrupt(format!("frame at offset {pos}: {why}")),
        }
    })
}

/// Blocking record reader for live sockets, built on the same parser step
/// as [`decode`]. `Ok(None)` is a clean EOF on a frame boundary; a torn,
/// corrupt or foreign stream or an I/O failure is an `Err` with a reason —
/// never a panic.
pub struct Reader<R, In> {
    inner: In,
    buf: Vec<u8>,
    pos: usize,
    saw_header: bool,
    _rec: PhantomData<fn() -> R>,
}

impl<R: Record, In: Read> Reader<R, In> {
    /// A reader expecting a fresh stream (header first).
    pub fn new(inner: In) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            pos: 0,
            saw_header: false,
            _rec: PhantomData,
        }
    }

    /// Blocks until the next record, a clean EOF or damage.
    pub fn recv(&mut self) -> Result<Option<R>, String> {
        loop {
            if !self.saw_header && self.buf.len() >= HEADER_LEN {
                let magic = String::from_utf8_lossy(&R::MAGIC);
                check_header(&self.buf, R::MAGIC, R::VERSION).map_err(|e| match e {
                    SnapshotError::UnsupportedVersion(v) => {
                        format!("peer speaks {magic} v{v}, expected v{}", R::VERSION)
                    }
                    _ => format!("peer did not send the {magic} header"),
                })?;
                self.pos = HEADER_LEN;
                self.saw_header = true;
            }
            if self.saw_header {
                match step(&self.buf[self.pos..]) {
                    Step::Complete(rec, used) => {
                        self.pos += used;
                        return Ok(Some(rec));
                    }
                    Step::Corrupt(why) => return Err(format!("corrupt frame: {why}")),
                    Step::Need => {}
                }
            }
            // Compact consumed bytes so the buffer stays bounded by one frame.
            self.buf.drain(..self.pos);
            self.pos = 0;
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) if self.saw_header && self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err("connection closed mid-frame".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }
}

/// Buffered record writer. [`Writer::push`] frames a record into the
/// buffer; [`Writer::flush`] writes everything buffered and flushes it to
/// the OS, so a crash can only tear the final flush group. The event log
/// flushes once per tick; the fabric sends (push + flush) every message.
#[derive(Debug)]
pub struct Writer<R, Out> {
    inner: Out,
    enc: Enc,
    _rec: PhantomData<fn(&R)>,
}

impl<R: Record, Out: Write> Writer<R, Out> {
    /// A writer starting a fresh stream: the header goes out with the
    /// first flush.
    pub fn new(inner: Out) -> Self {
        let mut w = Self::append(inner);
        w.enc.buf.extend_from_slice(&header(R::MAGIC, R::VERSION));
        w
    }

    /// A writer continuing a stream that already holds its header and
    /// ends on a frame boundary (a resumed recording).
    pub fn append(inner: Out) -> Self {
        Self {
            inner,
            enc: Enc::new(),
            _rec: PhantomData,
        }
    }

    /// Buffers one framed record (written by the next flush).
    pub fn push(&mut self, rec: &R) {
        let e = &mut self.enc;
        let start = e.buf.len();
        e.u32(0); // the payload length, patched once it is known
        rec.put(e);
        let len = (e.buf.len() - start - 4) as u32;
        e.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a(&e.buf[start + 4..]);
        e.u64(sum);
    }

    /// Writes the buffered bytes and flushes them to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.enc.buf.is_empty() {
            self.inner.write_all(&self.enc.buf)?;
            self.enc.buf.clear();
        }
        self.inner.flush()
    }

    /// Pushes one record and flushes at once (so a heartbeat is never
    /// sat on by a buffer).
    pub fn send(&mut self, rec: &R) -> std::io::Result<()> {
        self.push(rec);
        self.flush()
    }
}
