#![cfg(feature = "proptest")]
//! Requires re-adding `proptest` to this crate's [dev-dependencies].

//! Property tests for the IOVA allocation substrate.
//!
//! These encode the safety-critical allocator invariants from DESIGN.md §6:
//! live ranges never overlap, frees always succeed for live ranges, and the
//! range-set invariants (ordered, `lo <= hi`, disjoint) hold after
//! arbitrary op sequences.

use proptest::prelude::*;

use fns_iova::{
    CachingAllocator, IntervalSet, IovaAllocator, IovaRange, RbTreeAllocator, RcacheConfig,
};

/// A randomly generated allocator workload step.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        pages: u64,
        core: usize,
    },
    /// Frees the `idx % live`-th live range (no-op when none are live).
    Free {
        idx: usize,
        core: usize,
    },
}

fn op_strategy(max_pages: u64, cores: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..=max_pages, 0..cores).prop_map(|(pages, core)| Op::Alloc { pages, core }),
        (any::<usize>(), 0..cores).prop_map(|(idx, core)| Op::Free { idx, core }),
    ]
}

/// Runs ops against an allocator, asserting the no-overlap invariant on the
/// live set after every step.
fn run_workload<A: IovaAllocator>(alloc: &mut A, ops: &[Op], check_every: usize) {
    let mut live: Vec<IovaRange> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Alloc { pages, core } => {
                if let Some(r) = alloc.alloc(pages, core) {
                    assert_eq!(r.pages(), pages);
                    for l in &live {
                        assert!(!l.overlaps(r), "allocator returned overlapping range");
                    }
                    live.push(r);
                }
            }
            Op::Free { idx, core } => {
                if !live.is_empty() {
                    let r = live.swap_remove(idx % live.len());
                    alloc.free(r, core);
                }
            }
        }
        if step % check_every == 0 {
            assert_eq!(alloc.live_ranges(), live.len());
        }
    }
    // Drain and make sure the allocator agrees nothing is live.
    for r in live.drain(..) {
        alloc.free(r, 0);
    }
    assert_eq!(alloc.live_ranges(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbtree_allocator_never_overlaps(ops in proptest::collection::vec(op_strategy(64, 1), 1..200)) {
        let mut a = RbTreeAllocator::new();
        run_workload(&mut a, &ops, 7);
        a.ranges().check_invariants().unwrap();
    }

    #[test]
    fn caching_allocator_never_overlaps(ops in proptest::collection::vec(op_strategy(64, 4), 1..300)) {
        let mut a = CachingAllocator::with_defaults(4);
        run_workload(&mut a, &ops, 7);
        a.tree().ranges().check_invariants().unwrap();
    }

    #[test]
    fn caching_allocator_small_magazines(ops in proptest::collection::vec(op_strategy(8, 2), 1..300)) {
        // Tiny magazines + depot force constant rotation/eviction traffic.
        let cfg = RcacheConfig { magazine_size: 2, depot_max: 1, max_cached_pages: 8 };
        let mut a = CachingAllocator::new(2, cfg);
        run_workload(&mut a, &ops, 3);
        a.tree().ranges().check_invariants().unwrap();
    }

    #[test]
    fn interval_set_invariants_under_random_ops(
        inserts in proptest::collection::vec((0u64..10_000, 1u64..64), 1..200),
        remove_mask in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let mut t = IntervalSet::new();
        let mut inserted: Vec<u64> = Vec::new();
        for (i, &(lo, len)) in inserts.iter().enumerate() {
            if t.insert(lo, lo + len - 1).is_ok() {
                inserted.push(lo);
            }
            if remove_mask[i % remove_mask.len()] && !inserted.is_empty() {
                let victim = inserted.swap_remove(i % inserted.len());
                assert!(t.remove(victim));
            }
            t.check_invariants().unwrap();
        }
        // In-order traversal must be sorted and disjoint.
        let ranges: Vec<_> = t.iter().collect();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "overlap or disorder: {:?}", w);
        }
        prop_assert_eq!(ranges.len(), inserted.len());
    }

    #[test]
    fn interval_set_sequential_inserts(n in 1usize..800) {
        // Sequential inserts are the classic worst case for naive BSTs; the
        // set must keep its invariants and answer lookups.
        let mut t = IntervalSet::new();
        for i in 0..n as u64 {
            t.insert(i * 2, i * 2).unwrap();
        }
        t.check_invariants().unwrap();
        // Spot-check lookups still work.
        prop_assert_eq!(t.get((n as u64 - 1) * 2), Some(((n as u64 - 1) * 2, (n as u64 - 1) * 2)));
    }

    #[test]
    fn alloc_free_alloc_is_stable_same_core(pages in 1u64..32) {
        // Freeing to a core's magazine and re-allocating on the same core
        // must return the same range (LIFO hit), for every size class.
        let mut a = CachingAllocator::with_defaults(2);
        let r = a.alloc(pages, 1).unwrap();
        a.free(r, 1);
        prop_assert_eq!(a.alloc(pages, 1), Some(r));
    }
}

// The dependency-free locality-decay test moved to
// `randomized_allocator.rs`, which runs in the offline tier-1 suite.
