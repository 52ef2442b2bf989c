//! The binary codec behind every format in the crate (`WRSNSNAP`
//! snapshots, the `WRSNEVTL` event log and the `WRSNFAB1` fabric stream):
//! little-endian primitives, `f64` as its IEEE-754 bit pattern, and one
//! [`Codec`] trait whose `put`/`get` pair is written once per record.
//!
//! A record's wire format *is* its field list: `codec_struct!` and
//! `codec_enum!` expand one ordered list of fields (or tagged variants)
//! into both `put` and `get`, so the two sides cannot drift apart.
//! Editing a list changes the bytes, which means a format `VERSION` bump
//! and a new golden fixture (DESIGN.md §4d). Types whose decode must
//! check more than the wire shape (a battery level inside its capacity, a
//! time series that never goes back in time) keep hand-written impls.

use std::collections::VecDeque;

use crate::snapshot::SnapshotError;
use wrsn_core::{ClusterId, RvId, SensorId, TargetId};
use wrsn_geom::Point2;

pub(crate) type Result<T> = std::result::Result<T, SnapshotError>;

/// The primitive encoder: little-endian fields, `f64` as IEEE bits.
#[derive(Debug)]
pub struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::with_capacity(4096),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends `v`'s encoding (chainable).
    pub(crate) fn put<T: Codec>(&mut self, v: &T) -> &mut Self {
        v.put(self);
        self
    }

    /// A length prefix, then every item.
    pub(crate) fn seq<'a, T: Codec + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.len(items.len());
        items.for_each(|x| x.put(self));
    }
}

/// The primitive decoder matching [`Enc`]: every read is bounds-checked
/// and fails with [`SnapshotError::Truncated`] instead of panicking.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes one `T`.
    pub(crate) fn get<T: Codec>(&mut self) -> Result<T> {
        T::get(self)
    }

    /// A length prefix — additionally bounded by the remaining bytes (every
    /// element costs at least one byte), so a corrupt length can never
    /// trigger an absurd allocation.
    pub(crate) fn len(&mut self) -> Result<usize> {
        let v = self.count()?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// A plain count — a value that does *not* prefix that many encoded
    /// elements (a population size, a dispatch's stop count), so it may
    /// legitimately exceed the remaining bytes.
    pub(crate) fn count(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)
    }

    pub(crate) fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes after the payload"))),
        }
    }
}

pub(crate) fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

/// `Ok` if `ok`, else a [`SnapshotError::Corrupt`] with the reason `why`.
pub(crate) fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(why()))
    }
}

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A value with one binary encoding: `put` appends it, `get` reads it
/// back and rejects anything `put` could not have written.
pub trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, e: &mut Enc);
    /// Decodes one value.
    fn get(d: &mut Dec) -> Result<Self>;
}

/// `Codec` for a struct, from its fields in wire order:
/// `codec_struct! { Point2 { x, y } }`. A field written `name: decoder`
/// is read by `decoder(d)` instead of its own `get` (a guarded count).
macro_rules! codec_struct {
    (@get $d:ident) => { $crate::codec::Codec::get($d)? };
    (@get $d:ident $get:path) => { $get($d)? };
    ($($ty:ident { $($f:ident $(: $get:path)?),* $(,)? })*) => {$(
        impl $crate::codec::Codec for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Codec::put(&self.$f, e);)*
            }
            fn get(d: &mut $crate::codec::Dec) -> $crate::codec::Result<Self> {
                Ok(Self { $($f: $crate::codec::codec_struct!(@get d $($get)?)),* })
            }
        }
    )*};
}

/// `Codec` for an enum: a one-byte tag, then the variant's fields in wire
/// order. Tags are explicit literals, so reordering the enum cannot move
/// them: `codec_enum! { RvPhase, "RV phase"; 0 => Idle, 1 => ToStop(s) }`.
macro_rules! codec_enum {
    ($ty:ident, $what:literal; $($tag:literal => $var:ident
        $({ $($f:ident),* $(,)? })? $(( $($t:ident),* ))?),* $(,)?) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(Self::$var $({ $($f),* })? $(( $($t),* ))? => {
                        e.u8($tag);
                        $($($crate::codec::Codec::put($f, e);)*)?
                        $($($crate::codec::Codec::put($t, e);)*)?
                    })*
                }
            }
            fn get(d: &mut $crate::codec::Dec) -> $crate::codec::Result<Self> {
                Ok(match d.u8()? {
                    $($tag => {
                        $($(let $f = $crate::codec::Codec::get(d)?;)*)?
                        $($(let $t = $crate::codec::Codec::get(d)?;)*)?
                        Self::$var $({ $($f),* })? $(( $($t),* ))?
                    })*
                    t => return Err($crate::codec::corrupt(format!(concat!("bad ", $what, " tag {}"), t))),
                })
            }
        }
    };
}

pub(crate) use {codec_enum, codec_struct};

impl Codec for u32 {
    fn put(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        d.u32()
    }
}

impl Codec for u64 {
    fn put(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        d.u64()
    }
}

/// A `usize` field is a plain count (`Dec::count`); length prefixes go
/// through `Vec`/`String`, which bound them by the remaining bytes.
impl Codec for usize {
    fn put(&self, e: &mut Enc) {
        e.len(*self);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        d.count()
    }
}

impl Codec for f64 {
    fn put(&self, e: &mut Enc) {
        e.u64(self.to_bits());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(f64::from_bits(d.u64()?))
    }
}

impl Codec for bool {
    fn put(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
}

/// A length-prefixed UTF-8 string.
impl Codec for String {
    fn put(&self, e: &mut Enc) {
        e.len(self.len());
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let n = d.len()?;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| corrupt("string field is not UTF-8"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, e: &mut Enc) {
        self.iter().for_each(|x| x.put(e));
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = T::get(d)?;
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        // `collect` over `Result`s cannot presize; `len` bounds `n` by the
        // bytes left, so reserving it up front is safe.
        let n = d.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Vec::get(d)?.into())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(x) => {
                e.u8(1);
                x.put(e);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(Box::new(T::get(d)?))
    }
}

macro_rules! codec_id {
    ($($id:ident)*) => {$(
        impl Codec for $id {
            fn put(&self, e: &mut Enc) {
                e.u32(self.0);
            }
            fn get(d: &mut Dec) -> Result<Self> {
                Ok(Self(d.u32()?))
            }
        }
    )*};
}

codec_id! { SensorId RvId ClusterId TargetId }

codec_struct! { Point2 { x, y } }
