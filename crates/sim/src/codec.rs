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

/// FNV-1a 64-bit over `bytes`: the identity hash behind
/// [`crate::SimConfig::content_hash`] and [`crate::journal::grid_hash`],
/// whose values are pinned. Damage checks use [`checksum`].
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
/// The four lanes before any block.
const LANES: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
/// `merge(LANES)`: the start of the sum of a payload shorter than a block.
const NO_BLOCKS: u64 = merge(LANES);

/// One lane step: a bijection of `acc` for a fixed word, and of the word
/// for a fixed `acc`.
const fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds the four lanes into one state, a bijection of each lane when
/// the others are fixed.
const fn merge(lanes: [u64; 4]) -> u64 {
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    let mut i = 0;
    while i < 4 {
        h = (h ^ round(0, lanes[i])).wrapping_mul(P1).wrapping_add(P4);
        i += 1;
    }
    h
}

/// Folds one word into the state, a bijection of each when the other is
/// fixed.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The little-endian word in `bytes`, which callers slice to 8 bytes.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

/// The damage check of every frame trailer and snapshot-chain link
/// (DESIGN.md §4k): a 64-bit sum that reads `bytes` eight at a time.
///
/// Little-endian 32-byte blocks feed four independent multiply–rotate
/// lanes, one word each; the lanes merge into one state, the length is
/// added, then each remaining whole word and finally the zero-padded
/// last word (when the length is not a multiple of 8) are folded in, and
/// the state is avalanched. Every step is a bijection of its state, so a
/// change confined to one aligned 8-byte word always changes the sum.
/// Its values are part of the `WRSNEVTL` and `WRSNFAB1` formats (version
/// 2) and of every snapshot-chain marker, so `tests/codec_pins.rs` pins
/// them.
pub fn checksum(bytes: &[u8]) -> u64 {
    let blocks = bytes.chunks_exact(32);
    let rest = blocks.remainder();
    let mut h = if bytes.len() < 32 {
        NO_BLOCKS
    } else {
        let mut lanes = LANES;
        for block in blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word(&block[8 * i..8 * i + 8]));
            }
        }
        merge(lanes)
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = rest.chunks_exact(8);
    for w in &mut words {
        h = fold(h, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // The padded word without a copy: the last eight bytes shifted
        // down, or the bytes themselves when there are fewer than eight.
        let padded = match bytes.len() {
            n if n >= 8 => word(&bytes[n - 8..]) >> (64 - 8 * tail.len()),
            _ => tail.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)),
        };
        h = fold(h, padded);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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

impl Codec for i64 {
    fn put(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        Ok(d.u64()? as i64)
    }
}

/// Low 64 bits first.
impl Codec for i128 {
    fn put(&self, e: &mut Enc) {
        e.u64(*self as u64);
        e.u64((*self >> 64) as u64);
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let (lo, hi) = (d.u64()?, d.u64()?);
        Ok((hi as i128) << 64 | lo as i128)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`checksum`] as its doc defines it: the lanes always merge, and the
    /// last word is padded by a copy.
    fn by_definition(bytes: &[u8]) -> u64 {
        let mut lanes = LANES;
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word(&block[8 * i..8 * i + 8]));
            }
        }
        let mut h = merge(lanes).wrapping_add(bytes.len() as u64);
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            h = fold(h, word(w));
        }
        if !words.remainder().is_empty() {
            let mut padded = [0u8; 8];
            padded[..words.remainder().len()].copy_from_slice(words.remainder());
            h = fold(h, u64::from_le_bytes(padded));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn checksum_matches_its_definition_at_every_length() {
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 11) as u8)
            .collect();
        for n in 0..=bytes.len() {
            assert_eq!(
                checksum(&bytes[..n]),
                by_definition(&bytes[..n]),
                "length {n}"
            );
        }
    }

    /// A nonzero 64-bit value derived from `salt` and `i` (splitmix64).
    fn delta(salt: u64, i: usize) -> u64 {
        let mut z = salt.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) | 1
    }

    /// Random payloads of 0–300 bytes, every tail length 0–7 equally often.
    fn payloads() -> impl Strategy<Value = Vec<u8>> {
        (0usize..8, 0usize..=37).prop_flat_map(|(tail, words)| {
            proptest::collection::vec(0u8..=255, (8 * words + tail).min(300))
        })
    }

    proptest! {
        /// Each damage below must move the sum.
        #[test]
        fn checksum_catches_word_bit_and_length_damage(
            payload in payloads(),
            salt in 0u64..u64::MAX,
        ) {
            let sum = checksum(&payload);
            // Any replacement of one aligned word (the partial last word
            // included): XOR a nonzero delta confined to its bytes.
            for (i, start) in (0..payload.len()).step_by(8).enumerate() {
                let mut damaged = payload.clone();
                let word = &mut damaged[start..(start + 8).min(payload.len())];
                for (b, d) in word.iter_mut().zip(delta(salt, i).to_le_bytes()) {
                    *b ^= d;
                }
                prop_assert!(checksum(&damaged) != sum, "word {i} replaced");
            }
            for bit in 0..payload.len() * 8 {
                let mut damaged = payload.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(checksum(&damaged) != sum, "bit {bit} flipped");
            }
            for k in 1..=16 {
                if k <= payload.len() {
                    let cut = &payload[..payload.len() - k];
                    prop_assert!(checksum(cut) != sum, "truncated by {k}");
                }
                for fill in [0, delta(salt, k) as u8] {
                    let mut longer = payload.clone();
                    longer.resize(payload.len() + k, fill);
                    prop_assert!(checksum(&longer) != sum, "extended by {k} x {fill:#04x}");
                }
            }
        }
    }
}
