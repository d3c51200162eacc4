//! Ordered set of disjoint allocated IOVA pfn ranges.
//!
//! Linux's IOVA allocator (`drivers/iommu/iova.c`) keeps every allocated
//! range in a red-black tree ordered by start pfn; allocation searches for a
//! gap between neighbouring ranges, top-down from the end of the address
//! space. Every query it makes is ordered by start pfn, so the standard
//! library's B-tree (`lo -> hi`) answers them all: insert with an overlap
//! check, remove by start, and the descending walk over the ranges below a
//! bound that the gap search in [`crate::rbtree_alloc`] is built on.
//!
//! Invariants (checked by [`IntervalSet::check_invariants`] and exercised by
//! the randomized tests): ranges are ordered by `lo`, each has `lo <= hi`,
//! and no two overlap.

use std::collections::BTreeMap;

use fns_snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A set of disjoint inclusive `[lo, hi]` pfn ranges.
///
/// # Examples
///
/// ```
/// use fns_iova::IntervalSet;
///
/// let mut s = IntervalSet::new();
/// s.insert(10, 19).unwrap();
/// s.insert(30, 39).unwrap();
/// assert!(s.insert(15, 25).is_err()); // overlap rejected
/// assert_eq!(s.below(30).next(), Some((10, 19)));
/// assert!(s.remove(10));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    ranges: BTreeMap<u64, u64>,
}

/// `(lo, hi)` pairs in ascending order; restore re-inserts them, refusing
/// inverted or overlapping ranges.
impl Snap for IntervalSet {
    fn snap(&self, w: &mut SnapWriter) {
        self.ranges.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut set = IntervalSet::new();
        for (lo, hi) in Vec::<(u64, u64)>::unsnap(r)? {
            if lo > hi || set.insert(lo, hi).is_err() {
                return Err(SnapError::BadTag {
                    what: "iova range set",
                    tag: lo,
                });
            }
        }
        Ok(set)
    }
}

/// Error returned when inserting a range that overlaps an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapError {
    /// The conflicting existing range.
    pub existing: (u64, u64),
}

impl std::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "range overlaps existing [{}, {}]",
            self.existing.0, self.existing.1
        )
    }
}

impl std::error::Error for OverlapError {}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ranges in the set.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` if the set holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Inserts the inclusive pfn range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn insert(&mut self, lo: u64, hi: u64) -> Result<(), OverlapError> {
        assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        // The ranges are disjoint and ordered, so only the last one starting
        // at or below `hi` can reach `lo`.
        if let Some((&elo, &ehi)) = self.ranges.range(..=hi).next_back() {
            if ehi >= lo {
                return Err(OverlapError {
                    existing: (elo, ehi),
                });
            }
        }
        self.ranges.insert(lo, hi);
        Ok(())
    }

    /// Removes the range starting exactly at `lo`; returns `false` if absent.
    pub fn remove(&mut self, lo: u64) -> bool {
        self.ranges.remove(&lo).is_some()
    }

    /// Looks up the range starting exactly at `lo`.
    pub fn get(&self, lo: u64) -> Option<(u64, u64)> {
        self.ranges.get(&lo).map(|&hi| (lo, hi))
    }

    /// Ranges in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&lo, &hi)| (lo, hi))
    }

    /// Ranges whose `lo` is strictly below `end`, highest first.
    pub fn below(&self, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.range(..end).rev().map(|(&lo, &hi)| (lo, hi))
    }

    /// Verifies the ordering, `lo <= hi` and disjointness invariants;
    /// returns an error string describing the first violation. Used by
    /// tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<(u64, u64)> = None;
        for (lo, hi) in self.iter() {
            if lo > hi {
                return Err(format!("inverted range [{lo}, {hi}]"));
            }
            if let Some((plo, phi)) = prev {
                if plo >= lo {
                    return Err(format!("order violation: {plo} before {lo}"));
                }
                if phi >= lo {
                    return Err(format!("[{plo}, {phi}] overlaps [{lo}, {hi}]"));
                }
            }
            prev = Some((lo, hi));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_order() {
        let mut s = IntervalSet::new();
        for lo in [50u64, 10, 30, 70, 20] {
            s.insert(lo, lo + 5).unwrap();
            s.check_invariants().unwrap();
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(10, 15), (20, 25), (30, 35), (50, 55), (70, 75)]
        );
        assert_eq!(s.iter().next_back(), Some((70, 75)));
    }

    #[test]
    fn overlap_rejected() {
        let mut s = IntervalSet::new();
        s.insert(10, 20).unwrap();
        assert!(s.insert(20, 30).is_err());
        assert!(s.insert(5, 10).is_err());
        assert!(s.insert(12, 18).is_err());
        assert_eq!(s.insert(0, 100), Err(OverlapError { existing: (10, 20) }));
        s.insert(21, 30).unwrap();
        s.insert(0, 9).unwrap();
        assert_eq!(s.len(), 3);
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_every_other() {
        let mut s = IntervalSet::new();
        for lo in 0..100u64 {
            s.insert(lo * 10, lo * 10 + 5).unwrap();
        }
        for lo in (0..100u64).step_by(2) {
            assert!(s.remove(lo * 10));
            s.check_invariants().unwrap();
        }
        assert_eq!(s.len(), 50);
        assert!(!s.remove(0));
    }

    #[test]
    fn below_walks_down() {
        let mut s = IntervalSet::new();
        s.insert(10, 19).unwrap();
        s.insert(40, 49).unwrap();
        s.insert(70, 79).unwrap();
        assert_eq!(s.below(70).collect::<Vec<_>>(), vec![(40, 49), (10, 19)]);
        assert_eq!(s.below(40).next(), Some((10, 19)));
        assert_eq!(s.below(10).next(), None);
        assert_eq!(s.below(u64::MAX).next(), Some((70, 79)));
    }

    #[test]
    fn ascending_descending_torture() {
        let mut s = IntervalSet::new();
        for lo in 0..500u64 {
            s.insert(lo * 2, lo * 2).unwrap();
        }
        s.check_invariants().unwrap();
        for lo in (0..500u64).rev() {
            assert!(s.remove(lo * 2));
        }
        s.check_invariants().unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn get_exact() {
        let mut s = IntervalSet::new();
        s.insert(5, 9).unwrap();
        assert_eq!(s.get(5), Some((5, 9)));
        assert_eq!(s.get(6), None);
    }
}
