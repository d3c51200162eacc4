//! Differential test of the allocator's gap search against a naive
//! reference.
//!
//! The reference keeps the allocated ranges in a sorted `Vec` and, for each
//! request, scans the gaps between them from the top down, taking the
//! highest (size-aligned, for power-of-two sizes) slot that fits below the
//! search start — Linux's top-down first fit stated directly, with the same
//! cached search start and the same one retry from the top. On seeded
//! random alloc/free streams `RbTreeAllocator` must return exactly the same
//! range, or the same `None`, at every step.

use fns_iova::{Iova, IovaAllocator, IovaRange, RbTreeAllocator, IOVA_SPACE_TOP};
use fns_sim::rng::SimRng;

const TOP_PFN: u64 = IOVA_SPACE_TOP >> 12;

/// Top-down first fit over a sorted `Vec` of inclusive `(lo, hi)` ranges.
struct Reference {
    ranges: Vec<(u64, u64)>,
    limit_pfn: u64,
    align_to_size: bool,
    search_start: u64,
}

impl Reference {
    fn new(limit_pfn: u64, align_to_size: bool) -> Self {
        Self {
            ranges: Vec::new(),
            limit_pfn,
            align_to_size,
            search_start: limit_pfn,
        }
    }

    /// Highest fitting slot ending at or below `start`: list every gap
    /// between neighbouring ranges, then try the highest aligned slot of
    /// each, from the top gap down.
    fn first_fit_below(&self, start: u64, pages: u64) -> Option<u64> {
        let mut gaps = Vec::new(); // (lowest free pfn, exclusive end)
        let mut floor = 0;
        for &(lo, hi) in &self.ranges {
            gaps.push((floor, lo));
            floor = hi + 1;
        }
        gaps.push((floor, u64::MAX));
        for &(gap_lo, gap_end) in gaps.iter().rev() {
            let Some(slot) = gap_end.min(start).checked_sub(pages) else {
                continue;
            };
            let slot = if self.align_to_size && pages.is_power_of_two() {
                slot & !(pages - 1)
            } else {
                slot
            };
            if slot >= gap_lo {
                return Some(slot);
            }
        }
        None
    }

    fn alloc(&mut self, pages: u64) -> Option<IovaRange> {
        let lo = self.first_fit_below(self.search_start, pages).or_else(|| {
            (self.search_start < self.limit_pfn)
                .then(|| self.first_fit_below(self.limit_pfn, pages))
                .flatten()
        })?;
        let at = self.ranges.partition_point(|&(l, _)| l < lo);
        self.ranges.insert(at, (lo, lo + pages - 1));
        self.search_start = lo;
        Some(IovaRange::new(Iova::from_pfn(lo), pages))
    }

    fn free(&mut self, r: IovaRange) {
        let at = self
            .ranges
            .iter()
            .position(|&(lo, _)| lo == r.pfn_lo())
            .expect("reference frees a live range");
        self.ranges.remove(at);
        self.search_start = self.search_start.max(r.pfn_hi() + 1).min(self.limit_pfn);
    }
}

/// Request sizes: power-of-two and odd sizes in 1..=64.
fn size(rng: &mut SimRng) -> u64 {
    if rng.chance(0.5) {
        1 << rng.range(0, 7)
    } else {
        rng.range(1, 65)
    }
}

/// Runs `steps` random ops on both allocators, comparing every result.
/// `free_bias` is the chance a step frees rather than allocates; frees pick
/// a random live range, so many of them land above the cached search start
/// and raise it.
fn differential(seed: u64, limit_pfn: u64, align: bool, steps: usize, free_bias: f64) -> usize {
    let mut rng = SimRng::seed(seed);
    let mut a = RbTreeAllocator::with_limit(limit_pfn);
    a.set_align_to_size(align);
    let mut reference = Reference::new(limit_pfn, align);
    let mut live: Vec<IovaRange> = Vec::new();
    let mut failures = 0;
    for step in 0..steps {
        if !live.is_empty() && rng.chance(free_bias) {
            let r = live.swap_remove(rng.index(live.len()));
            a.free(r, 0);
            reference.free(r);
        } else {
            let pages = size(&mut rng);
            let got = a.alloc(pages, 0);
            let want = reference.alloc(pages);
            assert_eq!(
                got, want,
                "seed {seed:#x} step {step}: alloc({pages}) diverged from the reference"
            );
            match got {
                Some(r) => live.push(r),
                None => failures += 1,
            }
        }
    }
    assert_eq!(a.live_ranges(), reference.ranges.len());
    assert_eq!(
        a.ranges().iter().collect::<Vec<_>>(),
        reference.ranges,
        "seed {seed:#x}: final range sets differ"
    );
    a.ranges().check_invariants().unwrap();
    failures
}

#[test]
fn matches_reference_on_the_full_space() {
    for case in 0..32u64 {
        differential(0x6A9 + case, TOP_PFN, true, 600, 0.45);
    }
}

#[test]
fn matches_reference_without_size_alignment() {
    for case in 0..16u64 {
        differential(0x7A9 + case, TOP_PFN, false, 600, 0.45);
    }
}

#[test]
fn matches_reference_near_exhaustion() {
    // A small space that alloc-heavy streams fill: exercises the retry from
    // the top, holes left by alignment, and clean `None`s.
    let mut failures = 0;
    for case in 0..48u64 {
        let limit = 256 + 64 * (case % 8);
        failures += differential(0x8A9 + case, limit, case % 4 != 3, 400, 0.3);
    }
    assert!(failures > 0, "the stream never reached exhaustion");
}
