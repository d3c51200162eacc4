//! Crafted snapshot bodies must be refused with a named [`SnapError`],
//! never abort or panic the process: a length, capacity or address read
//! from the file must not size an allocation or reach a constructor that
//! asserts on it.

use fns::iommu::lru64::Lru64;
use fns::iommu::{Iommu, IommuConfig};
use fns::iova::{IntervalSet, Iova, IovaRange};
use fns::sim::ReuseDistance;
use fns::snap::{fnv1a, Snap, SnapError, SnapReader, SnapWriter};
use fns::trace::TxnTrace;

/// A length or capacity no real snapshot holds (4 Ti elements).
const HUGE: usize = 1 << 42;

/// Decodes `bytes` as a `T`, keeping only the outcome.
fn decode<T: Snap>(bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes)?;
    T::unsnap(&mut r).map(drop)
}

/// A sealed snapshot whose body is whatever `f` writes.
fn body(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    f(&mut w);
    w.finish()
}

/// A fresh single-domain IOMMU's snapshot with its domain count, the `u64`
/// just before the four per-domain counters, overwritten by `domains`.
fn iommu_claiming(domains: u64) -> Vec<u8> {
    let mut bytes = body(|w| Iommu::new(IommuConfig::default()).snap(w));
    let body_end = bytes.len() - 8;
    let at = body_end - 4 * 8 - 8;
    bytes[at..at + 8].copy_from_slice(&domains.to_le_bytes());
    let sum = fnv1a(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn bad_capacity(e: &SnapError) -> bool {
    matches!(e, SnapError::BadCapacity { .. })
}

fn eof(e: &SnapError) -> bool {
    matches!(e, SnapError::UnexpectedEof { .. })
}

fn bad_tag(e: &SnapError) -> bool {
    matches!(e, SnapError::BadTag { .. })
}

type Decoder = fn(&[u8]) -> Result<(), SnapError>;

/// `(what is wrong, decoder, crafted snapshot, expected refusal)`.
type Case = (&'static str, Decoder, Vec<u8>, fn(&SnapError) -> bool);

#[test]
fn crafted_bodies_are_refused_with_a_snap_error() {
    let cases: [Case; 10] = [
        (
            "txn ring with a huge capacity and record count",
            decode::<TxnTrace>,
            body(|w| {
                w.usize(HUGE); // capacity
                w.usize(0); // head
                w.u64(0); // dropped
                w.seq(HUGE); // completed records
            }),
            bad_capacity,
        ),
        (
            "txn ring with zero capacity",
            decode::<TxnTrace>,
            body(|w| {
                w.usize(0);
                w.usize(0);
                w.u64(0);
                w.seq(0);
            }),
            bad_capacity,
        ),
        (
            "reuse tracker with a huge position-map length",
            decode::<ReuseDistance>,
            body(|w| {
                w.seq(0); // Fenwick tree
                w.seq(HUGE); // key -> position map
            }),
            eof,
        ),
        (
            "lru with zero capacity",
            decode::<Lru64<u64>>,
            body(|w| {
                w.usize(0);
                w.seq(0);
            }),
            bad_capacity,
        ),
        (
            "lru with a huge capacity",
            decode::<Lru64<u64>>,
            body(|w| {
                w.usize(HUGE);
                w.seq(0);
            }),
            bad_capacity,
        ),
        (
            "lru holding more entries than its capacity",
            decode::<Lru64<u64>>,
            body(|w| {
                w.usize(1);
                w.seq(2);
                for key in [1, 2] {
                    w.u64(key);
                    w.u64(key);
                }
            }),
            bad_capacity,
        ),
        (
            "iommu with a huge domain count",
            decode::<Iommu>,
            iommu_claiming(HUGE as u64),
            bad_capacity,
        ),
        (
            "iova beyond the 48-bit space",
            decode::<Iova>,
            body(|w| w.u64(1 << 60)),
            bad_tag,
        ),
        (
            "unaligned iova range",
            decode::<IovaRange>,
            body(|w| {
                w.u64(0x1001);
                w.u64(1);
            }),
            bad_tag,
        ),
        (
            "inverted iova range",
            decode::<IntervalSet>,
            body(|w| {
                w.seq(1);
                w.u64(9);
                w.u64(3);
            }),
            bad_tag,
        ),
    ];
    // The patched IOMMU body is otherwise intact: with its real domain
    // count it decodes.
    decode::<Iommu>(&iommu_claiming(1)).expect("unpatched iommu decodes");
    for (name, decode, bytes, expected) in cases {
        match decode(&bytes) {
            Err(e) if expected(&e) => {}
            other => panic!("{name}: expected a named refusal, got {other:?}"),
        }
    }
}
