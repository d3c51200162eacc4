//! Versioned, checksummed binary snapshot substrate.
//!
//! Checkpoint/restore of a running `HostSim` needs a serialization format
//! with three properties that rule out text formats and ad-hoc struct
//! dumps:
//!
//! * **bit-exactness** — restoring a snapshot and running to the end must
//!   be indistinguishable from never having snapshotted, so every field
//!   round-trips exactly (floats travel as IEEE-754 bit patterns, never
//!   through decimal);
//! * **versioned refusal** — a snapshot from an older build, a different
//!   configuration, or a truncated file must fail *loudly* with a named
//!   reason, never deserialize into garbage state;
//! * **zero dependencies** — the offline build cannot pull serde, so the
//!   format is hand-rolled: little-endian fixed-width integers,
//!   length-prefixed sequences, an 8-byte magic + format version header,
//!   and a trailing FNV-1a checksum over everything before it.
//!
//! [`SnapWriter`] appends primitives to a byte buffer; [`SnapReader`]
//! consumes them in the same order. Every snapshotted type implements the
//! [`Snap`] trait, whose two halves are one encoding: the primitives,
//! `Option`, the sequence containers, tuples and fixed arrays are
//! implemented here once, and a plain struct lists its persisted fields
//! once, in wire order, through [`snap_fields!`]. Only types whose restore
//! needs context or validation (a ring's geometry, a cache's capacity, a
//! handle that is re-shared after restore) write the two halves by hand,
//! and even those encode every field through [`Snap`]. The format version
//! in the header is bumped whenever any encoding changes shape.
//!
//! Sequence lengths come from the file, so no decoder trusts them for an
//! allocation: every sequence preallocates at most [`MAX_PREALLOC`]
//! elements and grows only as elements actually decode.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;

/// Magic bytes opening every snapshot file ("FNSSNAP" + format generation).
pub const MAGIC: &[u8; 8] = b"FNSSNAP1";

/// Format version written after the magic. Bump on ANY layout change to any
/// [`Snap`] encoding — old snapshots must refuse to load, not misparse.
pub const FORMAT_VERSION: u32 = 3;

/// Why a snapshot failed to load. Every variant names the exact reason so a
/// refused resume is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer is shorter than the fixed header.
    Truncated { need: usize, have: usize },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// Header format version differs from this build's [`FORMAT_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
    /// Trailing FNV-1a checksum does not match the body.
    ChecksumMismatch { found: u64, computed: u64 },
    /// A read ran past the end of the body mid-structure.
    UnexpectedEof { at: usize, need: usize },
    /// A decoded discriminant/tag byte has no matching variant.
    BadTag { what: &'static str, tag: u64 },
    /// A decoded capacity is zero or beyond what the structure can hold;
    /// building the structure from it would panic or exhaust memory.
    BadCapacity { what: &'static str, capacity: u64 },
    /// The snapshot's config fingerprint disagrees with the caller's
    /// config — resuming under a different config would silently diverge.
    ConfigMismatch { what: &'static str },
    /// Reader finished with bytes left over: writer/reader pairs are out
    /// of sync (almost always a missed [`FORMAT_VERSION`] bump).
    TrailingBytes { left: usize },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found}, this build reads {expected}"
            ),
            SnapError::ChecksumMismatch { found, computed } => write!(
                f,
                "snapshot checksum mismatch: file says {found:#018x}, body hashes to {computed:#018x}"
            ),
            SnapError::UnexpectedEof { at, need } => {
                write!(f, "snapshot body ended early at offset {at} (needed {need} more bytes)")
            }
            SnapError::BadTag { what, tag } => {
                write!(f, "snapshot contains invalid {what} tag {tag}")
            }
            SnapError::BadCapacity { what, capacity } => {
                write!(f, "snapshot contains invalid {what} capacity {capacity}")
            }
            SnapError::ConfigMismatch { what } => write!(
                f,
                "snapshot was taken under a different config ({what} differs); \
                 resume with the original config"
            ),
            SnapError::TrailingBytes { left } => write!(
                f,
                "snapshot has {left} unread trailing bytes: writer/reader out of sync"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over a byte slice — the integrity check appended to every
/// snapshot. Not cryptographic; it catches truncation and bit rot.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only encoder for the snapshot body.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a snapshot: magic + format version header already written.
    pub fn new() -> Self {
        let mut w = SnapWriter {
            buf: Vec::with_capacity(4096),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(FORMAT_VERSION);
        w
    }

    /// Finishes the snapshot: appends the FNV-1a checksum of everything
    /// written so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so snapshots are word-size independent.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` travels as its IEEE-754 bit pattern — exact round-trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u128` travels as two `u64` halves (lo, hi).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Length prefix for a sequence whose elements the caller writes next.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Sequential decoder for a snapshot produced by [`SnapWriter`].
///
/// Construction validates magic, version, and checksum up front; reads then
/// only need to match the writer's order. [`SnapReader::done`] must be
/// called last to catch leftover bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates header and trailing checksum, positioning the reader just
    /// past the format version.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        let header = MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(SnapError::Truncated {
                need: header + 8,
                have: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..header].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let body_end = bytes.len() - 8;
        let found = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        let computed = fnv1a(&bytes[..body_end]);
        if found != computed {
            return Err(SnapError::ChecksumMismatch { found, computed });
        }
        Ok(SnapReader {
            body: &bytes[..body_end],
            pos: header,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.pos + n > self.body.len() {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                need: self.pos + n - self.body.len(),
            });
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: t as u64,
            }),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        Ok(self.u64()? as usize)
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::BadTag {
            what: "utf-8 string",
            tag: 0,
        })
    }

    /// Sequence length written by [`SnapWriter::seq`]; elements follow.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        self.usize()
    }

    /// Must be the final call: fails if the body was not fully consumed.
    pub fn done(&self) -> Result<(), SnapError> {
        if self.pos != self.body.len() {
            return Err(SnapError::TrailingBytes {
                left: self.body.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Narrows an integer that travels widened (a `u16` domain written as a
/// `u64`, say), refusing a value the in-memory type cannot hold.
pub fn narrow<T: TryFrom<u64>>(what: &'static str, v: u64) -> Result<T, SnapError> {
    T::try_from(v).map_err(|_| SnapError::BadTag { what, tag: v })
}

/// Most elements any sequence decoder reserves before they decode: a
/// length prefix comes from the file and must not size an allocation.
pub const MAX_PREALLOC: usize = 1 << 16;

/// A type with one snapshot encoding: [`Snap::snap`] writes it and
/// [`Snap::unsnap`] reads back exactly what it wrote.
///
/// Plain structs implement it with [`snap_fields!`]; enums and types whose
/// restore validates or rebuilds state write the two halves by hand.
pub trait Snap: Sized {
    /// Appends the value's encoding.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes a value written by [`Snap::snap`].
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_primitives {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn snap(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$t()
            }
        }
    )*};
}

// `usize` travels as `u64`, `f64` as its bits, `u128` as (lo, hi).
snap_primitives!(u8, bool, u16, u32, u64, i64, usize, f64, u128);

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.str()?.to_string())
    }
}

/// A presence byte, then the payload if `Some`.
impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            t => Err(SnapError::BadTag {
                what: "option",
                tag: t as u64,
            }),
        }
    }
}

/// Writes a `seq` prefix and then each element.
fn snap_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.seq(items.len());
    for v in items {
        v.snap(w);
    }
}

/// Reads a `seq` prefix and that many elements into a collection made by
/// `alloc`, which is asked for at most [`MAX_PREALLOC`] slots.
fn unsnap_seq<T: Snap, C>(
    r: &mut SnapReader<'_>,
    alloc: impl FnOnce(usize) -> C,
    mut push: impl FnMut(&mut C, T),
) -> Result<C, SnapError> {
    let n = r.seq()?;
    let mut out = alloc(n.min(MAX_PREALLOC));
    for _ in 0..n {
        push(&mut out, T::unsnap(r)?);
    }
    Ok(out)
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_seq(w, self.iter());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        unsnap_seq(r, Vec::with_capacity, Vec::push)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_seq(w, self.iter());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        unsnap_seq(r, VecDeque::with_capacity, VecDeque::push_back)
    }
}

/// Elements in ascending order.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_seq(w, self.iter());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        unsnap_seq(
            r,
            |_| BTreeSet::new(),
            |s, v| {
                s.insert(v);
            },
        )
    }
}

/// `(key, value)` pairs in ascending key order.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        unsnap_seq(
            r,
            |_| BTreeMap::new(),
            |m, (k, v)| {
                m.insert(k, v);
            },
        )
    }
}

/// `(key, value)` pairs sorted by key, so the bytes do not depend on the
/// table's iteration order.
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq(pairs.len());
        for (k, v) in pairs {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        unsnap_seq(
            r,
            |n| HashMap::with_capacity_and_hasher(n, S::default()),
            |m, (k, v)| {
                m.insert(k, v);
            },
        )
    }
}

/// The elements back to back, no length prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v: Vec<T> = (0..N).map(|_| T::unsnap(r)).collect::<Result<_, _>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("decoded exactly N elements")))
    }
}

macro_rules! snap_tuples {
    ($(($($t:ident . $i:tt),+));*) => {$(
        /// The members in order.
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn snap(&self, w: &mut SnapWriter) {
                $(self.$i.snap(w);)+
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::unsnap(r)?,)+))
            }
        }
    )*};
}

snap_tuples! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4)
}

/// The value itself. A restore builds one `Rc` per encoding, so an owner
/// that shares the value must write it once and re-share the restored one.
impl<T: Snap> Snap for Rc<T> {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Rc::new(T::unsnap(r)?))
    }
}

/// The borrowed value.
impl<T: Snap> Snap for RefCell<T> {
    fn snap(&self, w: &mut SnapWriter) {
        self.borrow().snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RefCell::new(T::unsnap(r)?))
    }
}

/// Implements [`Snap`] for a struct from its persisted fields, listed once
/// in wire order. Each field travels as its own [`Snap`] encoding;
/// `field as T` widens it to the primitive `T` on the wire, and restore
/// refuses a value the field cannot hold (see [`narrow`]).
/// Fields that are not persisted go in a trailing
/// `restore_with { field: expr, … }` block that rebuilds them on restore.
///
/// A tuple struct names its fields by index, and a generic struct opens
/// with `impl<T, …>`, which requires `T: Snap` for each parameter.
///
/// ```
/// use fns_snap::{snap_fields, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Counter {
///     hits: u64,
///     domain: u16,
///     cache: Vec<u64>,
/// }
/// snap_fields!(Counter { hits, domain as u64 } restore_with { cache: Vec::new() });
///
/// let c = Counter { hits: 7, domain: 3, cache: vec![1] };
/// let mut w = SnapWriter::new();
/// c.snap(&mut w);
/// let bytes = w.finish();
/// let mut r = SnapReader::new(&bytes).unwrap();
/// let back = Counter::unsnap(&mut r).unwrap();
/// assert_eq!(back, Counter { hits: 7, domain: 3, cache: Vec::new() });
/// ```
#[macro_export]
macro_rules! snap_fields {
    (@body { $($field:tt $(as $wire:ty)?),* } { $($skip:ident: $default:expr),* }) => {
        fn snap(&self, w: &mut $crate::SnapWriter) {
            $($crate::snap_fields!(@put w, self.$field $(, $wire)?);)*
        }
        fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
            Ok(Self {
                $($field: $crate::snap_fields!(@get r, $field $(, $wire)?),)*
                $($skip: $default,)*
            })
        }
    };
    (@put $w:ident, $v:expr) => { $crate::Snap::snap(&$v, $w) };
    (@put $w:ident, $v:expr, $wire:ty) => { $crate::Snap::snap(&<$wire>::from($v), $w) };
    (@get $r:ident, $field:tt) => { $crate::Snap::unsnap($r)? };
    (@get $r:ident, $field:tt, $wire:ty) => {
        $crate::narrow(stringify!($field), <$wire as $crate::Snap>::unsnap($r)?.into())?
    };
    (impl<$($g:ident),+> $ty:ty { $($field:tt $(as $wire:ty)?),* $(,)? }
        $(restore_with { $($skip:ident: $default:expr),* $(,)? })?) => {
        impl<$($g: $crate::Snap),+> $crate::Snap for $ty {
            $crate::snap_fields!(@body { $($field $(as $wire)?),* } { $($($skip: $default),*)? });
        }
    };
    ($ty:ty { $($field:tt $(as $wire:ty)?),* $(,)? }
        $(restore_with { $($skip:ident: $default:expr),* $(,)? })?) => {
        impl $crate::Snap for $ty {
            $crate::snap_fields!(@body { $($field $(as $wire)?),* } { $($($skip: $default),*)? });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.u128(u128::MAX - 7);
        w.bytes(b"hello");
        w.str("snapshot");
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.u128().unwrap(), u128::MAX - 7);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "snapshot");
        r.done().unwrap();
    }

    /// A finished snapshot holding whatever `f` writes.
    fn encode(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        f(&mut w);
        w.finish()
    }

    /// Encodes `v` through [`Snap`] and checks it decodes back whole.
    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) -> Vec<u8> {
        let bytes = encode(|w| v.snap(w));
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(&T::unsnap(&mut r).unwrap(), v);
        r.done().unwrap();
        bytes
    }

    #[test]
    fn primitive_impls_write_the_writer_methods_bytes() {
        assert_eq!(round_trip(&0xABu8), encode(|w| w.u8(0xAB)));
        assert_eq!(round_trip(&true), encode(|w| w.bool(true)));
        assert_eq!(round_trip(&0xBEEFu16), encode(|w| w.u16(0xBEEF)));
        assert_eq!(round_trip(&7u32), encode(|w| w.u32(7)));
        assert_eq!(round_trip(&(u64::MAX - 1)), encode(|w| w.u64(u64::MAX - 1)));
        assert_eq!(round_trip(&-42i64), encode(|w| w.i64(-42)));
        assert_eq!(round_trip(&99usize), encode(|w| w.u64(99)));
        assert_eq!(round_trip(&-0.5f64), encode(|w| w.u64((-0.5f64).to_bits())));
        let big = u128::MAX - 7;
        assert_eq!(
            round_trip(&big),
            encode(|w| {
                w.u64(big as u64);
                w.u64((big >> 64) as u64);
            })
        );
        assert_eq!(round_trip(&"snap".to_string()), encode(|w| w.str("snap")));
    }

    #[test]
    fn option_is_a_presence_byte_then_the_payload() {
        assert_eq!(
            round_trip(&Some(9u64)),
            encode(|w| {
                w.u8(1);
                w.u64(9);
            })
        );
        assert_eq!(round_trip(&None::<u64>), encode(|w| w.u8(0)));
        let bytes = encode(|w| w.u8(2));
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            Option::<u64>::unsnap(&mut r),
            Err(SnapError::BadTag {
                what: "option",
                tag: 2
            })
        ));
    }

    #[test]
    fn sequences_are_a_length_prefix_then_the_elements() {
        let seq_of_u64 = encode(|w| {
            w.seq(3);
            for v in [1, 2, 3] {
                w.u64(v);
            }
        });
        assert_eq!(round_trip(&vec![1u64, 2, 3]), seq_of_u64);
        assert_eq!(round_trip(&VecDeque::from([1u64, 2, 3])), seq_of_u64);
        assert_eq!(round_trip(&BTreeSet::from([3u64, 1, 2])), seq_of_u64);
        // A byte vector is the length-prefixed raw bytes.
        assert_eq!(round_trip(&b"hey".to_vec()), encode(|w| w.bytes(b"hey")));
    }

    #[test]
    fn maps_are_key_sorted_pairs() {
        let pairs = encode(|w| {
            w.seq(2);
            w.u64(1);
            w.u32(10);
            w.u64(5);
            w.u32(50);
        });
        assert_eq!(round_trip(&BTreeMap::from([(5u64, 50u32), (1, 10)])), pairs);
        assert_eq!(round_trip(&vec![(1u64, 10u32), (5, 50)]), pairs);
        // Insertion order must not show: a large table iterates out of
        // key order, the encoding never does.
        let map: HashMap<u64, u32> = (0..500u64).rev().map(|k| (k * 7919, k as u32)).collect();
        let sorted: BTreeMap<u64, u32> = map.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(round_trip(&map), round_trip(&sorted));
    }

    #[test]
    fn tuples_and_arrays_have_no_prefix() {
        let three = encode(|w| {
            w.u8(4);
            w.u64(5);
            w.bool(true);
        });
        assert_eq!(round_trip(&(4u8, 5u64, true)), three);
        assert_eq!(
            round_trip(&[7u32, 8]),
            encode(|w| {
                w.u32(7);
                w.u32(8);
            })
        );
        assert_eq!(
            round_trip(&(1u8, 2u8, 3u8, 4u8)),
            encode(|w| w.u32(0x0403_0201))
        );
    }

    #[test]
    fn shared_cells_encode_the_value_itself() {
        let v = Rc::new(RefCell::new(vec![1u64]));
        assert_eq!(round_trip(&v), round_trip(&vec![1u64]));
    }

    #[test]
    fn a_huge_length_prefix_fails_without_allocating_for_it() {
        let bytes = encode(|w| {
            w.seq(usize::MAX / 2);
            w.u64(1);
        });
        let eof = |e: Result<_, SnapError>| matches!(e, Err(SnapError::UnexpectedEof { .. }));
        let reader = || SnapReader::new(&bytes).unwrap();
        assert!(eof(Vec::<u64>::unsnap(&mut reader()).map(drop)));
        assert!(eof(VecDeque::<[u64; 8]>::unsnap(&mut reader()).map(drop)));
        assert!(eof(HashMap::<u64, u64>::unsnap(&mut reader()).map(drop)));
        assert!(eof(BTreeMap::<u64, u64>::unsnap(&mut reader()).map(drop)));
    }

    #[derive(Debug, PartialEq)]
    struct Fields {
        a: u64,
        domain: u16,
        list: Vec<u32>,
        scratch: Vec<u8>,
    }
    snap_fields!(Fields { list, a, domain as u64 } restore_with { scratch: Vec::new() });

    #[derive(Debug, PartialEq)]
    struct Wrapper<T>(T, u8);
    snap_fields!(impl<T> Wrapper<T> { 0, 1 });

    #[test]
    fn snap_fields_writes_the_listed_fields_in_order() {
        let v = Fields {
            a: 3,
            domain: 9,
            list: vec![5],
            scratch: vec![1, 2],
        };
        let bytes = encode(|w| v.snap(w));
        let want = encode(|w| {
            w.seq(1);
            w.u32(5);
            w.u64(3);
            w.u64(9);
        });
        assert_eq!(bytes, want);
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = Fields::unsnap(&mut r).unwrap();
        assert_eq!(
            back,
            Fields {
                scratch: Vec::new(),
                ..v
            }
        );
        // A widened field refuses a value its in-memory type cannot hold.
        let wide = encode(|w| {
            w.seq(0);
            w.u64(3);
            w.u64(70_000);
        });
        let mut r = SnapReader::new(&wide).unwrap();
        assert!(matches!(
            Fields::unsnap(&mut r),
            Err(SnapError::BadTag {
                what: "domain",
                tag: 70_000
            })
        ));
        assert_eq!(
            round_trip(&Wrapper(7u64, 1)),
            encode(|w| {
                w.u64(7);
                w.u8(1);
            })
        );
    }

    #[test]
    fn nan_bit_pattern_is_preserved() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = SnapWriter::new().finish();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::BadMagic) | Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let mut bytes = w.finish();
        // Patch the version field and re-seal the checksum so only the
        // version check can fire.
        bytes[8] = 0xFE;
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&sum);
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn corruption_is_caught_by_checksum() {
        let mut w = SnapWriter::new();
        w.u64(0x1234_5678);
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_caught() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.finish();
        assert!(SnapReader::new(&bytes[..bytes.len() - 9]).is_err());
    }

    #[test]
    fn overread_and_trailing_bytes_are_errors() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(r.u64(), Err(SnapError::UnexpectedEof { .. })));

        let mut w = SnapWriter::new();
        w.u32(5);
        w.u32(6);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(
            r.done(),
            Err(SnapError::TrailingBytes { left: 4 })
        ));
    }

    #[test]
    fn errors_display_named_reasons() {
        let e = SnapError::ConfigMismatch { what: "seed" };
        assert!(e.to_string().contains("seed"));
        let e = SnapError::VersionMismatch {
            found: 9,
            expected: FORMAT_VERSION,
        };
        assert!(e.to_string().contains('9'));
    }
}
