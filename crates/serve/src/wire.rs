//! Versioned, checksummed binary wire format for the durability layer.
//!
//! Everything the serving tier needs to persist or ship crosses this
//! module as one of three record kinds, each framed identically:
//!
//! ```text
//! ┌──────────────────────── 16-byte header ────────────────────────┐
//! │ magic "RVFW" : u32 LE │ version : u16 │ kind : u8 │ rsvd : u8  │
//! │ payload_len  : u64 LE                                          │
//! ├──────────────────────── payload ───────────────────────────────┤
//! │ kind-specific fields, little-endian, `f64`s as raw bit patterns│
//! ├──────────────────────── trailer ───────────────────────────────┤
//! │ checksum : u64 LE — XXH64 (seed 0) over header + payload       │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`SchedulerSnapshot`] (kind 4) — the whole scheduler.
//! * [`DeltaRecord`] (kind 5) — one committed scheduler mutation in the
//!   replication log.
//! * [`DigestRecord`] (kind 6) — a digest of the primary's canonical
//!   state, letting a follower prove its reconstruction byte-identical.
//!
//! Kinds 1–3 (standalone stimulus, response and checkpoint records) are
//! retired and never reused: a frame carrying one fails at the header
//! as [`WireError::UnknownRecord`]. A [`StateCheckpoint`] travels only
//! inside a snapshot or a delta.
//!
//! Each record's fields are listed once, in wire order, in the layout
//! table below. That one list is the record's encoder — which the frame
//! runs to count the payload, to write it, and to fold it into XXH64 —
//! and its decoder; the encoder is compiled once per destination, and a
//! list of `f64`s crosses it as one bulk run. `f64`s travel as raw
//! IEEE-754 bit patterns, so an encode → decode round trip is
//! **bit-exact**: the property the tier's restore-then-replay guarantee
//! is built on.
//!
//! Records are generic over how they hold their `f64` vectors. A
//! [`WireRecord`] owns them. The scheduler journals from borrowed
//! `&[f64]`s and [`CheckpointView`](rvf_core::CheckpointView)s.
//! [`WireRecord::decode`] and [`decode_stream`] yield a [`WireView`],
//! whose [`F64s`] read the decoded bytes in place, a whole 8-byte chunk
//! per value: those bytes are not 8-aligned, so they cannot be cast to
//! `&[f64]`; a caller that keeps one copies it out with
//! [`F64s::to_vec`]. A snapshot, read once per baseline or restore,
//! decodes straight into an owned [`SchedulerSnapshot`].
//!
//! # Totality
//!
//! [`WireRecord::decode`] is *total*: any byte string produces either a
//! view or a typed [`WireError`] — never a panic, and never an
//! allocation larger than the input itself. A view allocates nothing; a
//! snapshot's lists and names are sized only after their count field
//! has been checked against the payload bytes that remain. The
//! decode-fuzz suite pins this by mutating valid records with
//! truncations, bit flips, and lying length fields.
//!
//! Decode validates strictly in this order: truncated header →
//! [`WireError::BadMagic`] → [`WireError::UnsupportedVersion`] →
//! [`WireError::UnknownRecord`] → truncated payload/trailer →
//! [`WireError::TrailingBytes`] → [`WireError::BadChecksum`] → payload
//! parse errors. The wire layer checks *wire-level* sanity only;
//! semantic validation of decoded values (model fingerprints, shape
//! compatibility, live-session references) belongs to
//! [`Scheduler::restore`](crate::Scheduler::restore) and
//! [`CompiledSim::import_state`](rvf_core::CompiledSim::import_state).

use core::fmt;
use core::ops::Range;
use std::collections::VecDeque;

use bytes::{Buf, Bytes, TryGetError};
use rvf_core::StateCheckpoint;

use crate::scheduler::ServeConfig;

/// Wire magic: the bytes `RVFW`, read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RVFW");

/// Current wire-format version. Decoders reject every other value with
/// [`WireError::UnsupportedVersion`]; bumping this is how incompatible
/// layout changes are made loud instead of silent. Version 2 moved the
/// trailer and every digest from FNV-1a to XXH64; no layout, length or
/// payload byte changed.
pub const WIRE_VERSION: u16 = 2;

/// Record kind of a [`SchedulerSnapshot`].
pub const KIND_SNAPSHOT: u8 = 4;
/// Record kind of a [`DeltaRecord`].
pub const KIND_DELTA: u8 = 5;
/// Record kind of a [`DigestRecord`].
pub const KIND_DIGEST: u8 = 6;

/// Bytes of the fixed record header (magic, version, kind, reserved,
/// payload length).
pub const HEADER_LEN: usize = 16;

/// XXH64 (seed 0) over `bytes` — the record checksum. Exposed so tests
/// can craft adversarial records whose checksums are *valid* (a lying
/// length field must be caught by count validation, not saved by the
/// checksum), and so external tooling can verify records it relays.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.put_slice(bytes);
    h.finish()
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn merge(acc: u64, v: u64) -> u64 {
    (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// Streaming XXH64 with seed 0 (the xxHash specification): four lane
/// accumulators over 32-byte stripes. Whole little-endian words fill the
/// pending stripe or, in a run, go to the lanes a stripe at a time; the
/// bytes of a shorter field wait in `carry` until a word is complete, so
/// a `u64` after an odd-length field costs one shift, not eight stores.
pub(crate) struct Xxh64 {
    acc: [u64; 4],
    stripe: [u64; 4],
    /// Whole words waiting in `stripe`.
    lanes: usize,
    /// Bytes below a word boundary, little-endian from bit 0.
    carry: u64,
    carry_len: u32,
    total: u64,
}

impl Xxh64 {
    fn new() -> Self {
        let acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        Self { acc, stripe: [0; 4], lanes: 0, carry: 0, carry_len: 0, total: 0 }
    }

    fn push_word(&mut self, w: u64) {
        self.stripe[self.lanes] = w;
        self.lanes += 1;
        if self.lanes == 4 {
            self.lanes = 0;
            for (acc, &lane) in self.acc.iter_mut().zip(&self.stripe) {
                *acc = round(*acc, lane);
            }
        }
    }

    /// Appends a run of whole words, `bits` of each element. Whole words
    /// keep `carry_len` fixed: past carried bytes, each word is shifted
    /// over them and its top bytes carried on.
    fn put_run<T>(&mut self, src: &[T], bits: impl Fn(&T) -> u64) {
        self.total += 8 * src.len() as u64;
        // Aligned runs (every `checksum64`) skip the shift: it would cost
        // them about twice the time.
        if self.carry_len == 0 {
            return self.put_words(src, bits);
        }
        let (k, mut carry) = (8 * self.carry_len, self.carry);
        self.put_words(src, |v| {
            let v = bits(v);
            let w = v << k | carry;
            carry = v >> (64 - k);
            w
        });
        self.carry = carry;
    }

    /// Tops up the pending stripe, then feeds the lanes a stripe at a
    /// time.
    fn put_words<T>(&mut self, src: &[T], mut word: impl FnMut(&T) -> u64) {
        let (head, body) = src.split_at(src.len().min((4 - self.lanes) % 4));
        head.iter().for_each(|v| self.push_word(word(v)));
        let (stripes, tail) = body.as_chunks::<4>();
        let mut acc = self.acc;
        for s in stripes {
            for (acc, v) in acc.iter_mut().zip(s) {
                *acc = round(*acc, word(v));
            }
        }
        self.acc = acc;
        tail.iter().for_each(|v| self.push_word(word(v)));
    }

    /// The digest of everything written so far; the state is untouched,
    /// so writing can go on.
    fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.acc;
        let mut h = if self.total >= 32 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.acc.iter().fold(h, |h, &v| merge(h, v))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        for &w in &self.stripe[..self.lanes] {
            h = (h ^ round(0, w)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        let (mut carry, mut n) = (self.carry, self.carry_len);
        if n >= 4 {
            h ^= (carry & 0xFFFF_FFFF).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            (carry, n) = (carry >> 32, n - 4);
        }
        for _ in 0..n {
            h ^= (carry & 0xFF).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            carry >>= 8;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ h >> 32
    }
}

/// Typed decode failure. Every way a byte string can fail to be a
/// record maps to exactly one of these — the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes are not the `RVFW` magic.
    BadMagic {
        /// The magic actually read (little-endian).
        found: u32,
    },
    /// The version field names a format this decoder does not speak.
    UnsupportedVersion {
        /// The version actually read.
        found: u16,
    },
    /// The kind byte names no known record type.
    UnknownRecord {
        /// The kind actually read.
        kind: u8,
    },
    /// The buffer ends before the structure it promises. Also produced
    /// by every in-payload read that runs past the payload's end.
    Truncated {
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The trailer checksum does not match the header + payload bytes.
    BadChecksum {
        /// Checksum recomputed from the received bytes.
        expected: u64,
        /// Checksum carried in the trailer.
        found: u64,
    },
    /// The buffer continues past the end of the framed record.
    TrailingBytes {
        /// Bytes left over after the trailer.
        extra: u64,
    },
    /// A count field promises more elements than the remaining payload
    /// could possibly hold — rejected *before* any allocation, so a
    /// lying count cannot OOM the decoder.
    BadCount {
        /// Which count field lied.
        what: &'static str,
        /// The count it claimed.
        count: u64,
        /// Payload bytes actually remaining.
        available: u64,
    },
    /// A field holds a value that cannot be represented (a flag byte
    /// that is neither 0 nor 1, a non-UTF-8 model name, a size field
    /// exceeding this platform's `usize`, a payload shorter than its
    /// declared length).
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found } => write!(f, "wire: bad magic {found:#010x}"),
            Self::UnsupportedVersion { found } => {
                write!(f, "wire: unsupported format version {found}")
            }
            Self::UnknownRecord { kind } => write!(f, "wire: unknown record kind {kind}"),
            Self::Truncated { needed, available } => {
                write!(f, "wire: truncated record ({needed} bytes needed, {available} available)")
            }
            Self::BadChecksum { expected, found } => {
                write!(
                    f,
                    "wire: checksum mismatch (computed {expected:#018x}, stored {found:#018x})"
                )
            }
            Self::TrailingBytes { extra } => {
                write!(f, "wire: {extra} bytes trailing after the record")
            }
            Self::BadCount { what, count, available } => write!(
                f,
                "wire: {what} count {count} exceeds the {available} remaining payload bytes"
            ),
            Self::Malformed { what } => write!(f, "wire: malformed record: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<TryGetError> for WireError {
    fn from(e: TryGetError) -> Self {
        Self::Truncated { needed: e.requested as u64, available: e.available as u64 }
    }
}

/// Where encoded bytes go — counted (`usize`), buffered (`Vec<u8>`), or
/// folded into XXH64 — so a record's length field, bytes and checksum
/// share one writer, monomorphised per destination.
pub(crate) trait Sink {
    /// The low `n` bytes of `v` (1 ≤ `n` ≤ 8; higher bytes zero),
    /// little-endian.
    fn put_word(&mut self, v: u64, n: u32);
    fn put_slice(&mut self, src: &[u8]);
    /// A run of `f64` bit patterns, little-endian, in one bulk write.
    fn put_f64s(&mut self, src: &[f64]);
}

impl Sink for usize {
    fn put_word(&mut self, _: u64, n: u32) {
        *self += n as usize;
    }
    fn put_slice(&mut self, src: &[u8]) {
        *self += src.len();
    }
    fn put_f64s(&mut self, src: &[f64]) {
        *self += 8 * src.len();
    }
}

impl Sink for Vec<u8> {
    fn put_word(&mut self, v: u64, n: u32) {
        self.extend_from_slice(&v.to_le_bytes()[..n as usize]);
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_f64s(&mut self, src: &[f64]) {
        let at = self.len();
        self.resize(at + 8 * src.len(), 0);
        for (to, v) in self[at..].as_chunks_mut().0.iter_mut().zip(src) {
            *to = v.to_le_bytes();
        }
    }
}

impl Sink for Xxh64 {
    fn put_word(&mut self, v: u64, n: u32) {
        self.total += u64::from(n);
        let k = self.carry_len;
        let word = self.carry | v << (8 * k);
        if k + n < 8 {
            (self.carry, self.carry_len) = (word, k + n);
            return;
        }
        self.push_word(word);
        self.carry = if k == 0 { 0 } else { v >> (64 - 8 * k) };
        self.carry_len = k + n - 8;
    }

    fn put_slice(&mut self, src: &[u8]) {
        let (words, rest) = src.as_chunks();
        self.put_run(words, |w| u64::from_le_bytes(*w));
        rest.iter().for_each(|&b| self.put_word(u64::from(b), 1));
    }

    fn put_f64s(&mut self, src: &[f64]) {
        self.put_run(src, |v| v.to_bits());
    }
}

/// A payload being decoded: the bytes not yet read.
type Reader<'a> = &'a [u8];

/// The next `n` bytes of `r`, borrowed.
fn take<'a>(r: &mut Reader<'a>, n: usize) -> Result<&'a [u8], WireError> {
    let (head, rest) =
        r.split_at_checked(n).ok_or(TryGetError { requested: n, available: r.len() })?;
    *r = rest;
    Ok(head)
}

/// A `u32` count of elements of at least `min` bytes each, refused if
/// the rest of the payload cannot hold them.
fn count(r: &mut Reader<'_>, min: usize, what: &'static str) -> Result<usize, WireError> {
    let (count, available) = (r.try_get_u32_le()?, r.len() as u64);
    match (count as usize).checked_mul(min) {
        Some(need) if need as u64 <= available => Ok(count as usize),
        _ => Err(WireError::BadCount { what, count: u64::from(count), available }),
    }
}

/// The encoding half of a layout.
pub(crate) trait Put {
    fn put<W: Sink>(&self, w: &mut W);

    /// A list's elements in order, one at a time unless the type writes
    /// a run in bulk (the `Hash::hash_slice` pattern).
    fn put_all<W: Sink>(list: &[Self], w: &mut W)
    where
        Self: Sized,
    {
        list.iter().for_each(|v| v.put(w));
    }
}

/// The decoding half of a layout.
pub(crate) trait Get<'a>: Sized {
    /// Fewest payload bytes one value occupies, against which a count of
    /// them is checked.
    const MIN: usize;
    /// Reads one value; `what` names the field in its errors.
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, WireError>;
}

/// A record's layout: its fields in wire order, each with its type and,
/// where the field can fail to decode on its own, the `what` its error
/// names. Expands to the record's [`Put`] and [`Get`]; given a `pub
/// struct` or `pub enum`, it declares the record too. An enum writes a
/// tag byte ahead of each variant's fields.
macro_rules! layout {
    ($(#[$m:meta])* pub struct $ty:ident $(<$($p:ident = $d:ty),+>)? {
        $($(#[$fm:meta])* $f:ident: $t:ty $(=> $what:literal)?),+ $(,)?
    }) => {
        $(#[$m])*
        pub struct $ty$(<$($p = $d),+>)? {
            $($(#[$fm])* pub $f: $t,)+
        }
        layout!($ty$(<$($p),+>)? { $($f: $t $(=> $what)?),+ });
    };
    ($(#[$m:meta])* pub enum $ty:ident<$p:ident = $d:ty> else $unknown:literal {
        $($(#[$vm:meta])* $v:ident $({
            $($(#[$fm:meta])* $f:ident: $t:ty $(=> $what:literal)?),+ $(,)?
        })? = $tag:literal),+ $(,)?
    }) => {
        $(#[$m])*
        pub enum $ty<$p = $d> {
            $($(#[$vm])* $v $({ $($(#[$fm])* $f: $t),+ })?,)+
        }

        impl<$p: Put> Put for $ty<$p> {
            fn put<W: Sink>(&self, w: &mut W) {
                match self {
                    $(Self::$v $({ $($f),+ })? => {
                        w.put_word($tag, 1);
                        $($($f.put(w);)+)?
                    })+
                }
            }
        }

        impl<'a, $p: Get<'a>> Get<'a> for $ty<$p> {
            const MIN: usize = 1;
            fn get(r: &mut Reader<'a>, _: &'static str) -> Result<Self, WireError> {
                Ok(match r.try_get_u8()? {
                    $($tag => Self::$v $({ $($f: Get::get(r, layout!(@what $($what)?))?),+ })?,)+
                    _ => return Err(WireError::Malformed { what: $unknown }),
                })
            }
        }
    };
    ($ty:ident $(<$($p:ident),+>)? { $($f:ident: $t:ty $(=> $what:literal)?),+ $(,)? }) => {
        impl$(<$($p: Put),+>)? Put for $ty$(<$($p),+>)? {
            fn put<W: Sink>(&self, w: &mut W) {
                $(self.$f.put(w);)+
            }
        }

        impl<'a, $($($p: Get<'a>),+)?> Get<'a> for $ty$(<$($p),+>)? {
            const MIN: usize = 0 $(+ <$t as Get<'a>>::MIN)+;
            fn get(r: &mut Reader<'a>, _: &'static str) -> Result<Self, WireError> {
                Ok(Self { $($f: Get::get(r, layout!(@what $($what)?))?),+ })
            }
        }
    };
    (@what $what:literal) => { $what };
    (@what) => { "" };
}

/// The fields all layouts are built from, each as `type: |value, sink|
/// encoding, fewest bytes, |reader, what| decoding;`, and, for a type
/// that writes a list of itself in one bulk run, `all |list, sink|
/// encoding` before the `;`.
macro_rules! leaf {
    ($($t:ty: |$v:ident, $w:ident| $put:expr, $min:expr, |$r:ident, $what:ident| $get:expr
        $(, all |$l:ident, $lw:ident| $all:expr)?;)+) => {$(
        impl Put for $t {
            fn put<W: Sink>(&self, $w: &mut W) {
                let $v = self;
                $put
            }
            $(fn put_all<W: Sink>($l: &[Self], $lw: &mut W) {
                $all
            })?
        }

        impl<'a> Get<'a> for $t {
            const MIN: usize = $min;
            fn get($r: &mut Reader<'a>, $what: &'static str) -> Result<Self, WireError> {
                $get
            }
        }
    )+};
}

leaf! {
    u8: |v, w| w.put_word(u64::from(*v), 1), 1, |r, _what| Ok(r.try_get_u8()?);
    u32: |v, w| w.put_word(u64::from(*v), 4), 4, |r, _what| Ok(r.try_get_u32_le()?);
    u64: |v, w| w.put_word(*v, 8), 8, |r, _what| Ok(r.try_get_u64_le()?);
    f64: |v, w| w.put_word(v.to_bits(), 8), 8, |r, _what| Ok(r.try_get_f64_le()?),
        all |list, w| w.put_f64s(list);
    usize: |v, w| w.put_word(*v as u64, 8), 8, |r, what| {
        usize::try_from(r.try_get_u64_le()?).map_err(|_| WireError::Malformed { what })
    };
    bool: |v, w| w.put_word(u64::from(*v), 1), 1, |r, what| match r.try_get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed { what }),
    };
    [u64; 4]: |v, w| v.iter().for_each(|&x| w.put_word(x, 8)), 32, |r, what| {
        Ok([u64::get(r, what)?, u64::get(r, what)?, u64::get(r, what)?, u64::get(r, what)?])
    };
    // A `u32` byte length, then UTF-8.
    String: |v, w| put_list(w, v.as_bytes()), 4, |r, what| {
        let len = count(r, 1, what)?;
        let text = core::str::from_utf8(take(r, len)?);
        text.map(str::to_owned).map_err(|_| WireError::Malformed { what: "non-UTF-8 string" })
    };
}

/// A presence flag, then the value if present.
impl<T: Put> Put for Option<T> {
    fn put<W: Sink>(&self, w: &mut W) {
        self.is_some().put(w);
        self.iter().for_each(|v| v.put(w));
    }
}

impl<'a, T: Get<'a>> Get<'a> for Option<T> {
    const MIN: usize = 1;
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, WireError> {
        Ok(if bool::get(r, what)? { Some(T::get(r, what)?) } else { None })
    }
}

/// A list: a `u32` count, then the elements.
fn put_list<T: Put>(w: &mut impl Sink, list: &[T]) {
    w.put_word(list.len() as u64, 4);
    T::put_all(list, w);
}

impl<T: Put> Put for [T] {
    fn put<W: Sink>(&self, w: &mut W) {
        put_list(w, self);
    }
}

impl<T: Put> Put for Vec<T> {
    fn put<W: Sink>(&self, w: &mut W) {
        put_list(w, self);
    }
}

impl<T: Put> Put for VecDeque<T> {
    fn put<W: Sink>(&self, w: &mut W) {
        w.put_word(self.len() as u64, 4);
        self.iter().for_each(|v| v.put(w));
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put<W: Sink>(&self, w: &mut W) {
        (**self).put(w);
    }
}

impl<'a, T: Get<'a>> Get<'a> for Vec<T> {
    const MIN: usize = 4;
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, WireError> {
        let n = count(r, T::MIN, what)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(T::get(r, what)?);
        }
        Ok(list)
    }
}

/// A decoded `f64` vector, borrowed: the raw little-endian bit patterns
/// in the decoded bytes, read a whole 8-byte chunk per value
/// (`iter().len()` is its length). Compares bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64s<'a>(&'a [u8]);

impl<'a> F64s<'a> {
    /// The values in order, bit-exact.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.0.as_chunks().0.iter().map(|&b| f64::from_le_bytes(b))
    }

    /// The values as an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl Put for F64s<'_> {
    fn put<W: Sink>(&self, w: &mut W) {
        w.put_word(self.0.len() as u64 / 8, 4);
        w.put_slice(self.0);
    }
}

impl<'a> Get<'a> for F64s<'a> {
    const MIN: usize = 4;
    fn get(r: &mut Reader<'a>, what: &'static str) -> Result<Self, WireError> {
        let n = count(r, 8, what)?;
        Ok(F64s(take(r, 8 * n)?))
    }
}

// The layout table: every record, and every part of one, with its
// fields in wire order.

// Declared by `rvf_core` and the scheduler.
layout!(StateCheckpoint<V> {
    shape: [u64; 4],
    uprev: u64,
    started: bool => "checkpoint started flag must be 0 or 1",
    samples: u64,
    coef_dt: u64,
    v0: V => "checkpoint drive vector",
    sre: V => "checkpoint block state (re)",
    sim: V => "checkpoint block state (im)",
});

layout!(ServeConfig {
    max_sessions: usize => "max_sessions exceeds platform usize",
    max_queued_requests: usize => "max_queued_requests exceeds platform usize",
    max_queued_samples: usize => "max_queued_samples exceeds platform usize",
    max_chunk_samples: usize => "max_chunk_samples exceeds platform usize",
    idle_timeout: u64,
    retry_backoff_base: u64,
    max_retries: u32,
    rebuild_after_panics: u64,
    degrade_after_rebuilds: u64,
    workers: usize => "workers exceeds platform usize",
});

layout! {
    /// One registry entry as captured in a [`SchedulerSnapshot`]: the
    /// name a model was registered under and its table fingerprint.
    /// [`Scheduler::restore`](crate::Scheduler::restore) refuses a
    /// registry whose same-index entry differs in either.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SnapshotModel {
        /// [`CompiledSim::fingerprint`](rvf_core::CompiledSim::fingerprint)
        /// of the compiled tables.
        fingerprint: u64,
        /// Registered model name.
        name: String => "model name",
    }
}

layout! {
    /// One live session inside a [`SnapshotSlot`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SnapshotSession<V = Vec<f64>> {
        /// Registry index of the session's model.
        model: u32,
        /// Bit pattern of the session's sample step.
        dt_bits: u64,
        /// Tick of the session's last activity (idle-expiry clock).
        last_activity: u64,
        /// The session's kernel state.
        state: StateCheckpoint<V>,
    }
}

layout! {
    /// One slot of the generation-tagged session slab.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SnapshotSlot<V = Vec<f64>> {
        /// Slot generation — restored exactly so pre-snapshot
        /// [`SessionHandle`](crate::SessionHandle)s stay valid (and
        /// stale ones stay invalid) across a restore.
        generation: u32,
        /// The live session, or `None` for a free slot.
        session: Option<SnapshotSession<V>> => "session flag must be 0 or 1",
    }
}

layout! {
    /// One admitted request waiting in the queue, FIFO position
    /// preserved.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SnapshotRequest {
        /// Raw request id.
        id: u64,
        /// Raw handle of the session the chunk belongs to.
        session: u64,
        /// Absolute-tick deadline.
        deadline: u64,
        /// Panicked-round attempts so far (retry accounting).
        attempts: u32,
        /// Earliest tick the request may be served (retry backoff).
        not_before: u64,
        /// The stimulus samples.
        input: Vec<f64> => "queued request samples",
    }
}

layout! {
    /// The whole scheduler as plain data (kind 4): configuration,
    /// registry fingerprints, session slab, free list, admission queue,
    /// and counters. Produced by
    /// [`Scheduler::snapshot`](crate::Scheduler::snapshot), consumed by
    /// [`Scheduler::restore`](crate::Scheduler::restore); everything is
    /// on the injected `u64` clock, so a snapshot is deterministic and
    /// two snapshots of identical schedulers are byte-identical.
    ///
    /// The type parameters hold the four lists: a decoded snapshot owns
    /// them, and the scheduler writes its own lists, borrowed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SchedulerSnapshot<
        M = Vec<SnapshotModel>,
        S = Vec<SnapshotSlot>,
        F = Vec<u32>,
        Q = Vec<SnapshotRequest>
    > {
        /// Scheduler limits and tuning knobs.
        cfg: ServeConfig,
        /// Next request id to assign (restored exactly so ids never
        /// collide across a crash).
        next_request: u64,
        /// Pool rebuilds performed so far (degradation ladder position).
        rebuilds: u64,
        /// Whether the scheduler had degraded to the serial path.
        degraded: bool => "degraded flag must be 0 or 1",
        /// Registry entries the snapshot was taken against, in order.
        models: M => "registry models",
        /// The session slab, in slot order.
        slots: S => "session slots",
        /// Free-slot stack, in pop order — restored exactly so session
        /// handles assigned after a restore match an uninterrupted run.
        free: F => "free slots",
        /// The admission queue, front first.
        queue: Q => "queued requests",
    }
}

layout! {
    /// One committed scheduler mutation, as journaled to a replication
    /// log. Each op names one transition method of the scheduler's
    /// committed-state machine: the primary calls the method and
    /// journals the op, and a follower replays the op through the same
    /// method, so applying ops in sequence order reconstructs the
    /// primary's canonical state ([`SchedulerSnapshot`]) byte for byte.
    ///
    /// A batch round's in-flight motion (states advanced in place
    /// while it runs) is deliberately *not* journaled: deltas describe
    /// committed state transitions only, so the log between any two
    /// [`DigestRecord`]s is a pure function of the scheduler's
    /// observable state.
    #[derive(Debug, Clone, Copy, PartialEq)]
    #[non_exhaustive]
    pub enum DeltaOp<V = Vec<f64>> else "unknown delta op" {
        /// A session was opened (op 1): a slab slot was appended or
        /// popped off the free stack, carrying its initial kernel state.
        SessionOpened {
            /// Raw handle of the new session (slot index + generation).
            session: u64,
            /// Registry index of the session's model.
            model: u32,
            /// Bit pattern of the session's sample step.
            dt_bits: u64,
            /// Admission tick (initial idle-expiry clock).
            last_activity: u64,
            /// The session's kernel state at open.
            state: StateCheckpoint<V>,
        } = 1,
        /// A chunk was admitted to the queue tail (op 2). `attempts` is
        /// implicitly zero; the admission tick doubles as the session's
        /// new `last_activity`.
        Admitted {
            /// Raw request id — must equal the follower's `next_request`.
            request: u64,
            /// Raw handle of the session the chunk belongs to.
            session: u64,
            /// Absolute-tick deadline.
            deadline: u64,
            /// Admission tick (also the earliest serving tick).
            not_before: u64,
            /// The stimulus samples.
            input: V => "admitted request samples",
        } = 2,
        /// A chunk completed (op 3): the request left the queue and the
        /// session's kernel state advanced to `state`.
        ChunkCompleted {
            /// Raw id of the completed request.
            request: u64,
            /// Raw handle of the session it belonged to.
            session: u64,
            /// Completion tick (idle-expiry clock touch).
            last_activity: u64,
            /// The session's kernel state after the chunk.
            state: StateCheckpoint<V>,
        } = 3,
        /// A request failed terminally (op 4) — deadline, exhausted
        /// retries, serving error, or predecessor-failed cascade — and
        /// left the queue.
        RequestFailed {
            /// Raw id of the failed request.
            request: u64,
        } = 4,
        /// A session closed (op 5) — explicit close or idle expiry:
        /// queued work purged, slot generation bumped, slot pushed on
        /// the free stack.
        SessionClosed {
            /// Raw handle of the closed session.
            session: u64,
        } = 5,
        /// A panicked request was requeued at the queue *front* (op 6)
        /// with updated retry accounting. Emitted in the primary's push
        /// order, so applying "remove by id, push front" per op
        /// reproduces the exact queue order.
        RequestRetried {
            /// Raw id of the retried request.
            request: u64,
            /// Panicked-round attempts so far.
            attempts: u32,
            /// Earliest tick the retry may be served (backoff).
            not_before: u64,
        } = 6,
        /// The worker pool was torn down and rebuilt (op 7) — one rung
        /// up the degradation ladder.
        PoolRebuilt = 7,
        /// The scheduler degraded to the serial path (op 8) — terminal
        /// rung of the ladder.
        Degraded = 8,
    }
}

layout! {
    /// One sequence-numbered entry of the replication log (kind 5).
    /// Sequences start at 1 after the baseline snapshot and increment
    /// by exactly one per committed mutation; a follower refuses any
    /// other progression.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DeltaRecord<V = Vec<f64>> {
        /// Position in the log, starting at 1 after the baseline.
        seq: u64,
        /// The committed mutation.
        op: DeltaOp<V>,
    }
}

layout! {
    /// A periodic digest of the primary's canonical state (kind 6):
    /// [`checksum64`] over the primary's encoded [`SchedulerSnapshot`]
    /// record as of sequence `seq`. A follower recomputes the same
    /// digest from its reconstructed state; any mismatch is divergence,
    /// detected at the digest rather than at promotion.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DigestRecord {
        /// The last delta sequence the digest covers.
        seq: u64,
        /// XXH64 over the primary's encoded snapshot record.
        digest: u64,
    }
}

/// A wire record of any kind, its `f64` vectors held as `V`: owned in a
/// [`WireRecord`], borrowed from the decoded bytes in a [`WireView`].
#[derive(Debug, Clone, PartialEq)]
pub enum Record<V> {
    /// A full scheduler snapshot (kind 4), always owned.
    Snapshot(SchedulerSnapshot),
    /// A replication-log delta (kind 5).
    Delta(DeltaRecord<V>),
    /// A replication-log state digest (kind 6).
    Digest(DigestRecord),
}

/// A record that owns its vectors.
pub type WireRecord = Record<Vec<f64>>;

/// A decoded record, its vectors borrowing the decoded bytes.
pub type WireView<'a> = Record<F64s<'a>>;

impl<V> Record<V> {
    /// The record's kind byte.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Self::Snapshot(_) => KIND_SNAPSHOT,
            Self::Delta(_) => KIND_DELTA,
            Self::Digest(_) => KIND_DIGEST,
        }
    }
}

impl WireRecord {
    /// Encodes the record into a framed, checksummed byte string.
    /// Encoding is infallible: every field of every record type is
    /// representable, and the 64-bit length field cannot overflow an
    /// in-memory buffer.
    pub fn encode(&self) -> Bytes {
        frame(self.kind(), self)
    }

    /// Decodes one framed record into a view of `bytes`, validating
    /// magic, version, kind, framing lengths, and checksum before
    /// touching the payload (the order is in the module docs).
    ///
    /// # Errors
    ///
    /// A [`WireError`] naming the first check that failed.
    pub fn decode(bytes: &Bytes) -> Result<WireView<'_>, WireError> {
        decode_front(bytes.as_ref(), true).map(|(record, _)| record)
    }
}

impl WireView<'_> {
    /// Encodes the view: byte for byte the record it was decoded from.
    pub fn encode(&self) -> Bytes {
        frame(self.kind(), self)
    }
}

/// Decodes the record at the *front* of `bytes`, returning it with the
/// number of bytes it occupied. With `exact` set, bytes past the
/// record's own frame are [`WireError::TrailingBytes`] (the
/// [`WireRecord::decode`] contract); without it, they are left for the
/// caller — the [`decode_stream`] contract.
fn decode_front(bytes: &[u8], exact: bool) -> Result<(WireView<'_>, usize), WireError> {
    let total = bytes.len() as u64;
    let needed = check_header(bytes)?.unwrap_or(HEADER_LEN as u64 + 8);
    if total < needed {
        return Err(WireError::Truncated { needed, available: total });
    }
    if exact && total > needed {
        return Err(WireError::TrailingBytes { extra: total - needed });
    }
    // total >= needed, so the frame's length fits in usize.
    let (framed, trailer) = bytes[..needed as usize].split_at(needed as usize - 8);
    let (expected, found) = (checksum64(framed), u64::get(&mut &*trailer, "")?);
    if found != expected {
        return Err(WireError::BadChecksum { expected, found });
    }
    let r = &mut &framed[HEADER_LEN..];
    let record = match framed[6] {
        KIND_SNAPSHOT => Record::Snapshot(Get::get(r, "")?),
        KIND_DELTA => Record::Delta(Get::get(r, "")?),
        _ => Record::Digest(Get::get(r, "")?),
    };
    if !r.is_empty() {
        return Err(WireError::Malformed { what: "payload longer than its record contents" });
    }
    Ok((record, needed as usize))
}

/// Streaming decoder over concatenated framed records — the shape of a
/// replication log. Yields a view of each complete record in order; see
/// [`decode_stream`].
#[derive(Debug)]
pub struct RecordStream<'a> {
    buf: &'a [u8],
    offset: usize,
    /// Set by a hard decode error, which ends the stream.
    failed: bool,
}

impl RecordStream<'_> {
    /// Bytes consumed so far — the offset of the first byte *not* part
    /// of a fully decoded record. Stable across a trailing partial
    /// record, so a tailer resumes from here.
    pub fn consumed(&self) -> usize {
        self.offset
    }
}

impl<'a> Iterator for RecordStream<'a> {
    type Item = Result<WireView<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let rest = &self.buf[self.offset..];
        // A partial record is only "partial" while every byte seen so
        // far is consistent with a record under construction — anything
        // else is a hard error, not a wait-for-more-bytes condition.
        let decoded = match check_header(rest) {
            Ok(Some(needed)) if needed <= rest.len() as u64 => decode_front(rest, false),
            Ok(_) => return None,
            Err(e) => Err(e),
        };
        match decoded {
            Ok((record, used)) => {
                self.offset += used;
                Some(Ok(record))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Validates the visible prefix of a record header in order — magic,
/// version, kind, reserved byte, each once its bytes are visible — and,
/// once the length field is visible, returns the record's framed length.
fn check_header(r: &[u8]) -> Result<Option<u64>, WireError> {
    let le =
        |at: Range<usize>| r.get(at).map(|b| b.iter().rev().fold(0, |v, &x| v << 8 | x as u64));
    if let Some(found) = le(0..4).filter(|&magic| magic != MAGIC as u64) {
        return Err(WireError::BadMagic { found: found as u32 });
    }
    if let Some(found) = le(4..6).filter(|&version| version != WIRE_VERSION as u64) {
        return Err(WireError::UnsupportedVersion { found: found as u16 });
    }
    if let Some(&kind) = r.get(6).filter(|kind| !(KIND_SNAPSHOT..=KIND_DIGEST).contains(kind)) {
        return Err(WireError::UnknownRecord { kind });
    }
    if r.get(7).is_some_and(|&reserved| reserved != 0) {
        return Err(WireError::Malformed { what: "nonzero reserved header byte" });
    }
    Ok(le(8..16).map(|payload_len| payload_len.saturating_add(HEADER_LEN as u64 + 8)))
}

/// Iterates the concatenated framed records at the front of `buf`,
/// each as a view borrowing `buf`. The stream stops without an error
/// at a **clean end** (buffer exhausted exactly on a record boundary)
/// or at a **trailing partial record** (buffer ends inside a record
/// whose visible prefix is valid — a log caught mid-append). Any other
/// malformation is a hard, typed error and ends the stream.
///
/// [`RecordStream::consumed`] is then the resume offset: the end of the
/// last whole record, where a tailer such as
/// [`Follower::tail`](crate::replica::Follower::tail) retries once more
/// bytes arrive.
pub fn decode_stream(buf: &Bytes) -> RecordStream<'_> {
    RecordStream { buf: buf.as_ref(), offset: 0, failed: false }
}

impl<V: Put> Put for Record<V> {
    fn put<W: Sink>(&self, w: &mut W) {
        match self {
            Self::Snapshot(s) => s.put(w),
            Self::Delta(d) => d.put(w),
            Self::Digest(d) => d.put(w),
        }
    }
}

/// Writes a `kind` header and `payload` to the sink `new` makes for
/// the record's length in bytes, counted by a first pass.
fn put_record<W: Sink>(kind: u8, payload: &impl Put, new: impl FnOnce(usize) -> W) -> W {
    let mut len = 0;
    payload.put(&mut len);
    let mut w = new(HEADER_LEN + len + 8);
    // Magic, version, kind and the zero reserved byte: one word.
    w.put_word(u64::from(MAGIC) | u64::from(WIRE_VERSION) << 32 | u64::from(kind) << 48, 8);
    w.put_word(len as u64, 8);
    payload.put(&mut w);
    w
}

/// Frames `payload` (header, payload, trailer) in one buffer.
pub(crate) fn frame(kind: u8, payload: &impl Put) -> Bytes {
    let mut buf = put_record(kind, payload, Vec::with_capacity);
    buf.extend_from_slice(&checksum64(&buf).to_le_bytes());
    Bytes::from(buf)
}

/// [`checksum64`] of the record [`frame`] builds, in one pass that
/// builds nothing: XXH64 streams, a finished copy of its state after
/// header and payload is the trailer, and the hash goes on over the
/// trailer's bytes.
pub(crate) fn framed_checksum(kind: u8, payload: &impl Put) -> u64 {
    let mut h = put_record(kind, payload, |_| Xxh64::new());
    let trailer = h.finish();
    h.put_word(trailer, 8);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    /// The framer as it was before the one-buffer [`frame`]: the
    /// payload built on its own, copied behind a header, hashed, and
    /// the whole copied again ahead of the trailer. Kept as the oracle
    /// the one-buffer framer must match byte for byte.
    fn two_copy_frame(kind: u8, payload: Bytes) -> Bytes {
        let mut body = BytesMut::with_capacity(HEADER_LEN + payload.len() + 8);
        body.put_u32_le(MAGIC);
        body.put_u16_le(WIRE_VERSION);
        body.put_u8(kind);
        body.put_u8(0);
        body.put_u64_le(payload.len() as u64);
        body.put_slice(payload.as_ref());
        let body = body.freeze();
        let sum = checksum64(body.as_ref());
        let mut full = BytesMut::with_capacity(body.len() + 8);
        full.put_slice(body.as_ref());
        full.put_u64_le(sum);
        full.freeze()
    }

    fn checkpoint() -> StateCheckpoint {
        StateCheckpoint {
            shape: [2, 1, 1, 0],
            v0: vec![0.25, -1.5],
            sre: vec![3.0e-3],
            sim: vec![-0.0],
            uprev: 0.25f64.to_bits(),
            started: true,
            samples: 17,
            coef_dt: 1.0e-10f64.to_bits(),
        }
    }

    fn snapshot() -> SchedulerSnapshot {
        SchedulerSnapshot {
            cfg: ServeConfig { max_retries: 5, workers: 2, ..Default::default() },
            next_request: 42,
            rebuilds: 1,
            degraded: false,
            models: vec![
                SnapshotModel { name: "lowpass".into(), fingerprint: 0xDEAD_BEEF },
                SnapshotModel { name: "".into(), fingerprint: 7 },
            ],
            slots: vec![
                SnapshotSlot {
                    generation: 3,
                    session: Some(SnapshotSession {
                        model: 1,
                        dt_bits: 1.0e-10f64.to_bits(),
                        last_activity: 40,
                        state: checkpoint(),
                    }),
                },
                SnapshotSlot { generation: 1, session: None },
            ],
            free: vec![1],
            queue: vec![SnapshotRequest {
                id: 41,
                session: 3u64 << 32,
                deadline: 99,
                attempts: 2,
                not_before: 44,
                input: vec![0.1, 0.2, 0.3],
            }],
        }
    }

    fn deltas() -> Vec<WireRecord> {
        let ops = vec![
            DeltaOp::SessionOpened {
                session: (2u64 << 32) | 1,
                model: 1,
                dt_bits: 1.0e-10f64.to_bits(),
                last_activity: 7,
                state: checkpoint(),
            },
            DeltaOp::Admitted {
                request: 42,
                session: (2u64 << 32) | 1,
                deadline: 99,
                not_before: 7,
                input: vec![0.5, -0.0, 3.0e-200],
            },
            DeltaOp::ChunkCompleted {
                request: 42,
                session: (2u64 << 32) | 1,
                last_activity: 9,
                state: checkpoint(),
            },
            DeltaOp::RequestFailed { request: 43 },
            DeltaOp::SessionClosed { session: (2u64 << 32) | 1 },
            DeltaOp::RequestRetried { request: 44, attempts: 2, not_before: 21 },
            DeltaOp::PoolRebuilt,
            DeltaOp::Degraded,
        ];
        ops.into_iter()
            .enumerate()
            .map(|(i, op)| WireRecord::Delta(DeltaRecord { seq: i as u64 + 1, op }))
            .collect()
    }

    #[test]
    fn all_records_round_trip_bit_exact() {
        let mut records = vec![
            WireRecord::Snapshot(snapshot()),
            WireRecord::Digest(DigestRecord { seq: 17, digest: 0xFEED_5EED_F00D_D00D }),
        ];
        records.extend(deltas());
        for record in records {
            let bytes = record.encode();
            let view = WireRecord::decode(&bytes).expect("round trip decodes");
            assert_eq!(view.kind(), record.kind());
            assert_eq!(view.encode(), bytes, "kind {}: the view re-encodes", record.kind());
            // -0.0 vs 0.0 travel as distinct bit patterns.
            if let (
                Record::Delta(DeltaRecord { op: DeltaOp::Admitted { input: got, .. }, .. }),
                Record::Delta(DeltaRecord { op: DeltaOp::Admitted { input: want, .. }, .. }),
            ) = (&view, &record)
            {
                assert!(got.iter().map(f64::to_bits).eq(want.iter().map(|v| v.to_bits())));
            }
        }
    }

    #[test]
    fn header_validation_order() {
        let good = WireRecord::Digest(DigestRecord { seq: 1, digest: 2 }).encode();
        let raw = good.as_ref().to_vec();

        // Too short for even the magic.
        assert!(matches!(
            WireRecord::decode(&Bytes::from(vec![0x52, 0x56])),
            Err(WireError::Truncated { .. })
        ));
        // Bad magic wins over everything after it.
        let mut bad = raw.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(WireRecord::decode(&Bytes::from(bad)), Err(WireError::BadMagic { .. })));
        // Wrong version (checksum not consulted yet).
        let mut bad = raw.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            WireRecord::decode(&Bytes::from(bad)),
            Err(WireError::UnsupportedVersion { found: 0xFF })
        ));
        // Unknown kinds, the retired 1–3 among them.
        for kind in [0, 1, 2, 3, 7, 200] {
            let mut bad = raw.clone();
            bad[6] = kind;
            let got = WireRecord::decode(&Bytes::from(bad)).err();
            assert_eq!(got, Some(WireError::UnknownRecord { kind }), "kind {kind}");
        }
        // Nonzero reserved byte.
        let mut bad = raw.clone();
        bad[7] = 1;
        assert!(matches!(WireRecord::decode(&Bytes::from(bad)), Err(WireError::Malformed { .. })));
        // Truncated trailer.
        let cut = Bytes::from(raw[..raw.len() - 3].to_vec());
        assert!(matches!(WireRecord::decode(&cut), Err(WireError::Truncated { .. })));
        // Trailing garbage.
        let mut long = raw.clone();
        long.push(0);
        assert!(matches!(
            WireRecord::decode(&Bytes::from(long)),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
        // Flipped payload bit -> checksum mismatch.
        let mut bad = raw.clone();
        bad[HEADER_LEN] ^= 0x10;
        assert!(matches!(
            WireRecord::decode(&Bytes::from(bad)),
            Err(WireError::BadChecksum { .. })
        ));
        // The original still decodes.
        assert!(WireRecord::decode(&good).is_ok());
    }

    #[test]
    fn lying_count_field_is_rejected_before_allocation() {
        // An admission claiming u32::MAX samples in a tiny payload, with
        // a *valid* checksum: the count check must catch it.
        let mut p = BytesMut::new();
        p.put_u64_le(1);
        p.put_u8(2);
        (0..4).for_each(|i| p.put_u64_le(i));
        p.put_u32_le(u32::MAX);
        let bytes = two_copy_frame(KIND_DELTA, p.freeze());
        assert!(matches!(
            WireRecord::decode(&bytes),
            Err(WireError::BadCount { what: "admitted request samples", .. })
        ));
    }

    #[test]
    fn payload_longer_than_contents_is_rejected() {
        // Valid digest payload plus 4 spare zero bytes inside the
        // declared payload length (checksum valid): decode must notice
        // the leftovers.
        let mut p = BytesMut::new();
        p.put_u64_le(1);
        p.put_u64_le(2);
        p.put_u32_le(0);
        let bytes = two_copy_frame(KIND_DIGEST, p.freeze());
        assert!(matches!(WireRecord::decode(&bytes), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn error_display_is_informative() {
        for (e, needle) in [
            (WireError::BadMagic { found: 1 }, "magic"),
            (WireError::UnsupportedVersion { found: 9 }, "version 9"),
            (WireError::UnknownRecord { kind: 77 }, "kind 77"),
            (WireError::Truncated { needed: 24, available: 3 }, "24"),
            (WireError::BadChecksum { expected: 1, found: 2 }, "checksum"),
            (WireError::TrailingBytes { extra: 5 }, "5 bytes trailing"),
            (WireError::BadCount { what: "x", count: 9, available: 1 }, "count 9"),
            (WireError::Malformed { what: "nope" }, "nope"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    /// The snapshot of a live scheduler with served and queued work the
    /// wire fuzz suite's corpus holds.
    fn live_snapshot() -> WireRecord {
        let mut b = rvf_core::SimBuilder::new();
        let stat = b.drive_poly(&[0.0, 0.8, 0.02]);
        let d = b.drive_poly(&[0.0, 1.0, 0.1]);
        b.set_static_drive(stat);
        b.block_real(-1.0e9, d);
        b.block_pair(-0.5e9, 2.0e9, d, stat);
        let sim = b.try_build().expect("valid wiring");
        let registry = crate::ModelRegistry::build([("m".to_string(), sim)]);
        let mut sched = crate::Scheduler::new(registry, ServeConfig::default());
        let id = sched.registry().id("m").expect("registered");
        let s0 = sched.open_session(id, 1.0e-10, 0).expect("open");
        let s1 = sched.open_session(id, 2.0e-10, 0).expect("open");
        sched.submit(s0, &[0.1, 0.2, 0.3], 0, 100).expect("submit");
        sched.tick(1);
        sched.submit(s0, &[0.4; 5], 2, 100).expect("submit");
        sched.submit(s1, &[-0.2; 2], 2, 100).expect("submit");
        sched.close_session(s1).expect("close");
        let bytes = sched.snapshot().expect("snapshot");
        let Ok(WireView::Snapshot(snap)) = WireRecord::decode(&bytes) else {
            panic!("a snapshot decodes to a snapshot record");
        };
        WireRecord::Snapshot(snap)
    }

    /// One record of every kind and every delta op: the wire fuzz
    /// suite's round-trip corpus plus the unit fixtures.
    fn corpus() -> Vec<WireRecord> {
        let empty =
            DeltaOp::Admitted { request: 2, session: 1, deadline: 3, not_before: 0, input: vec![] };
        let mut records = vec![
            WireRecord::Delta(DeltaRecord { seq: 1, op: empty }),
            WireRecord::Snapshot(snapshot()),
            live_snapshot(),
            WireRecord::Digest(DigestRecord { seq: 2, digest: 0xDEAD_BEEF_0BAD_F00D }),
        ];
        records.extend(deltas());
        records
    }

    #[test]
    fn one_buffer_frame_matches_the_two_copy_oracle() {
        for record in corpus() {
            let mut payload = Vec::new();
            record.put(&mut payload);
            let want = two_copy_frame(record.kind(), Bytes::from(payload));
            assert_eq!(record.encode(), want, "kind {} framed differently", record.kind());
            let sum = framed_checksum(record.kind(), &record);
            assert_eq!(sum, checksum64(want.as_ref()), "kind {}: one-pass checksum", record.kind());
        }
    }

    #[test]
    fn checksum_matches_published_xxh64_vectors() {
        // XXH64, seed 0: reference values of the xxHash specification's
        // implementation. The 39- and 100-byte inputs run the lanes.
        assert_eq!(checksum64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(checksum64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
        let counting: Vec<u8> = (0..=99).collect();
        assert_eq!(checksum64(&counting), 0x6ac1_e580_3216_6597);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any mix of slices, whole words, `u32`s and single bytes, cut
        /// at any points and starting at any byte offset, hashes to the
        /// one-shot [`checksum64`] of the same bytes.
        #[test]
        fn streaming_hash_equals_one_shot(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            cuts in proptest::collection::vec((0u8..4, 0usize..70), 0..40),
        ) {
            let mut h = Xxh64::new();
            let w = &mut h;
            let mut at = 0;
            for (how, len) in cuts {
                let rest = &bytes[at..];
                let n = match how {
                    0 => len.min(rest.len()),
                    1 => 8,
                    2 => 4,
                    _ => 1,
                };
                if n > rest.len() {
                    break;
                }
                let word = |n| rest[..n].iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
                match how {
                    0 => w.put_slice(&rest[..n]),
                    1 => w.put_word(word(8), 8),
                    2 => w.put_word(word(4), 4),
                    _ => w.put_word(u64::from(rest[0]), 1),
                }
                at += n;
            }
            w.put_slice(&bytes[at..]);
            proptest::prop_assert_eq!(h.finish(), checksum64(&bytes));
        }
    }

    /// A value of the IEEE-754 class `class` picks, its other bits from
    /// `bits`: a signed zero, a subnormal, an infinity, a NaN with a
    /// payload, or (classes 4 and up) any bit pattern.
    fn of_class(class: u8, bits: u64) -> f64 {
        const SIGN: u64 = 1 << 63;
        const EXP: u64 = 0x7FF << 52;
        const MANT: u64 = (1 << 52) - 1;
        f64::from_bits(match class {
            0 => bits & SIGN,
            1 => bits & (SIGN | MANT) | 1,
            2 => bits & SIGN | EXP,
            3 => bits & (SIGN | MANT) | EXP | 1,
            _ => bits,
        })
    }

    /// `bytes` single bytes, `words` whole words, then `list` as a wire
    /// list: in one bulk run, or one value at a time.
    struct Prefixed<'a> {
        bytes: usize,
        words: usize,
        list: &'a [f64],
        bulk: bool,
    }

    impl Put for Prefixed<'_> {
        fn put<W: Sink>(&self, w: &mut W) {
            (0..self.bytes).for_each(|i| w.put_word(0xA0 + i as u64, 1));
            (0..self.words).for_each(|i| w.put_word(0x0123_4567_89AB_CDEF << i, 8));
            if self.bulk {
                self.list.put(w);
            } else {
                w.put_word(self.list.len() as u64, 4);
                self.list.iter().for_each(|v| v.put(w));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A bulk `f64` run, after a prefix that starts it at every
        /// carry offset and stripe phase, counts, writes and hashes the
        /// same as writing its values one at a time; its framed checksum
        /// is the checksum of its frame, and it reads back bit for bit.
        #[test]
        fn bulk_f64_run_equals_one_value_at_a_time(
            raw in proptest::collection::vec((0u8..8, 0u64..=u64::MAX), 0..80),
            bytes in 0usize..8,
            words in 0usize..4,
        ) {
            let list: Vec<f64> = raw.iter().map(|&(class, bits)| of_class(class, bits)).collect();
            let bulk = Prefixed { bytes, words, list: &list, bulk: true };
            let single = Prefixed { bulk: false, ..bulk };
            let (mut n_bulk, mut n_single) = (0usize, 0usize);
            bulk.put(&mut n_bulk);
            single.put(&mut n_single);
            let (mut b_bulk, mut b_single) = (Vec::new(), Vec::new());
            bulk.put(&mut b_bulk);
            single.put(&mut b_single);
            let (mut h_bulk, mut h_single) = (Xxh64::new(), Xxh64::new());
            bulk.put(&mut h_bulk);
            single.put(&mut h_single);
            proptest::prop_assert_eq!(n_bulk, n_single);
            proptest::prop_assert_eq!(n_bulk, b_single.len());
            proptest::prop_assert_eq!(&b_bulk, &b_single);
            proptest::prop_assert_eq!(h_bulk.finish(), h_single.finish());
            proptest::prop_assert_eq!(h_bulk.finish(), checksum64(&b_single));

            let framed = frame(KIND_DELTA, &bulk);
            let framed = framed.as_ref();
            let want = two_copy_frame(KIND_DELTA, Bytes::from(b_single));
            proptest::prop_assert_eq!(framed, want.as_ref());
            proptest::prop_assert_eq!(framed_checksum(KIND_DELTA, &bulk), checksum64(framed));
            let r = &mut &framed[HEADER_LEN + bytes + 8 * words..];
            let back = F64s::get(r, "").expect("the run reads back").iter().map(f64::to_bits);
            proptest::prop_assert!(back.eq(list.iter().map(|v| v.to_bits())));
        }
    }

    #[test]
    fn unknown_delta_op_is_malformed() {
        let mut p = BytesMut::new();
        p.put_u64_le(1);
        p.put_u8(99);
        let bytes = two_copy_frame(KIND_DELTA, p.freeze());
        assert!(matches!(
            WireRecord::decode(&bytes),
            Err(WireError::Malformed { what: "unknown delta op" })
        ));
    }

    #[test]
    fn stream_decodes_concatenated_records_to_a_clean_end() {
        let records = deltas();
        let mut log = BytesMut::new();
        for r in &records {
            log.put_slice(r.encode().as_ref());
        }
        let log = log.freeze();
        let total = log.len();
        let mut stream = decode_stream(&log);
        let mut back = Vec::new();
        for item in &mut stream {
            back.push(item.expect("stream record decodes").encode());
        }
        assert_eq!(back, records.iter().map(WireRecord::encode).collect::<Vec<_>>());
        assert!(stream.next().is_none());
        assert_eq!(stream.consumed(), total);
    }

    #[test]
    fn stream_reports_trailing_partial_record_and_resume_offset() {
        let a = WireRecord::Digest(DigestRecord { seq: 1, digest: 2 }).encode();
        let b = WireRecord::Digest(DigestRecord { seq: 2, digest: 3 }).encode();
        // Cut the second record at every interior boundary, including a
        // sub-header cut.
        for cut in 1..b.len() {
            let mut log = BytesMut::new();
            log.put_slice(a.as_ref());
            log.put_slice(&b.as_ref()[..cut]);
            let log = log.freeze();
            let mut stream = decode_stream(&log);
            let first = stream.next().expect("first record present").expect("first decodes");
            assert_eq!(first, WireRecord::decode(&a).expect("a decodes"));
            // A partial record stops the stream without an error, and the
            // resume offset stays at its first byte.
            assert!(stream.next().is_none(), "cut {cut}");
            assert!(stream.next().is_none(), "cut {cut}");
            assert_eq!(stream.consumed(), a.len());
        }
    }

    #[test]
    fn stream_treats_garbage_as_hard_error_not_partial() {
        let a = WireRecord::Digest(DigestRecord { seq: 1, digest: 2 }).encode();
        // Bad magic right after a full record: hard error, fused.
        let mut log = BytesMut::new();
        log.put_slice(a.as_ref());
        log.put_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let log = log.freeze();
        let mut stream = decode_stream(&log);
        assert!(stream.next().expect("first record").is_ok());
        assert!(matches!(stream.next(), Some(Err(WireError::BadMagic { .. }))));
        assert!(stream.next().is_none());
        assert_eq!(stream.consumed(), a.len());
    }
}
