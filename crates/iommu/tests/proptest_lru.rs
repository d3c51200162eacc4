#![cfg(feature = "proptest")]
//! Requires re-adding `proptest` to this crate's [dev-dependencies].

//! Model-checking the O(1) LRU cache against a naive reference
//! implementation, under arbitrary operation sequences.

use proptest::prelude::*;

#[path = "common/lru.rs"]
mod lru;

use lru::LruCache;

/// Naive reference: a vector ordered most-recently-used first.
struct NaiveLru {
    items: Vec<(u64, u64)>,
    cap: usize,
}

impl NaiveLru {
    fn new(cap: usize) -> Self {
        Self {
            items: Vec::new(),
            cap,
        }
    }

    fn get(&mut self, k: u64) -> Option<u64> {
        let pos = self.items.iter().position(|&(kk, _)| kk == k)?;
        let e = self.items.remove(pos);
        self.items.insert(0, e);
        Some(e.1)
    }

    fn insert(&mut self, k: u64, v: u64) -> Option<(u64, u64)> {
        if let Some(pos) = self.items.iter().position(|&(kk, _)| kk == k) {
            self.items.remove(pos);
            self.items.insert(0, (k, v));
            return None;
        }
        let mut evicted = None;
        if self.items.len() == self.cap {
            evicted = self.items.pop();
        }
        self.items.insert(0, (k, v));
        evicted
    }

    fn remove(&mut self, k: u64) -> Option<u64> {
        let pos = self.items.iter().position(|&(kk, _)| kk == k)?;
        Some(self.items.remove(pos).1)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u64),
    Remove(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..32).prop_map(Op::Get),
            (0u64..32, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..32).prop_map(Op::Remove),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_matches_naive_model(ops in ops(), cap in 1usize..12) {
        let mut real: LruCache<u64, u64> = LruCache::new(cap);
        let mut naive = NaiveLru::new(cap);
        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(real.get(&k).copied(), naive.get(k));
                }
                Op::Insert(k, v) => {
                    let a = real.insert(k, v);
                    let b = naive.insert(k, v);
                    prop_assert_eq!(a, b);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(real.remove(&k), naive.remove(k));
                }
            }
            prop_assert_eq!(real.len(), naive.items.len());
            prop_assert!(real.len() <= cap);
            // Full recency order must match.
            let order: Vec<u64> = naive.items.iter().map(|&(k, _)| k).collect();
            prop_assert_eq!(real.keys_mru_order(), order);
        }
    }
}
