//! Host-speed reference for the end-to-end timings.
//!
//! On a shared virtual machine, host speed changes in stretches that last
//! minutes, longer than one benchmark run. Ten runs can then straddle a
//! fast and a slow stretch, and their raw medians spread by 20–30%. Before
//! each basket repeat the benchmark times [`work`], a fixed computation of
//! its own that uses no simulator code. It then scales that repeat's host
//! times to the speed at which [`work`] takes [`NOMINAL_S`]. Over eight
//! 40 s iperf-flows runs this cut the run-to-run spread of `wall_s` from
//! 22% to 3%. The reference loop did better when it mixed hash-map, B-tree,
//! heap and sort work like the simulator; a memory-latency-only loop did not
//! track the simulator's slowdowns.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Seconds [`work`] takes at the nominal host speed (about its time on a
/// fast stretch of the 2-vCPU Xeon host the benchmark was tuned on).
pub const NOMINAL_S: f64 = 0.018;

/// A fixed mix of map, tree, heap and sort operations on pseudo-random
/// keys, about 18 ms on the tuning host. The result only defeats dead-code
/// elimination.
pub fn work() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>> =
        HashMap::default();
    let mut tree = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let k = rnd() % 100_000;
        map.insert(k, i);
        tree.insert(k, i);
        heap.push(rnd() % 1_000_000);
        if let Some(v) = map.get(&(rnd() % 100_000)) {
            acc = acc.wrapping_add(*v);
        }
        if i % 2 == 0 {
            acc ^= heap.pop().unwrap_or(0);
        }
    }
    let mut v: Vec<u64> = (0..200_000).map(|_| rnd()).collect();
    v.sort_unstable();
    acc ^ v[1000] ^ tree.len() as u64
}

/// Times one [`work`] call and returns the factor that converts host
/// seconds measured now into seconds at the nominal speed.
pub fn scale() -> f64 {
    let t = Instant::now();
    std::hint::black_box(work());
    NOMINAL_S / t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic_and_scale_is_positive() {
        assert_eq!(work(), work());
        let s = scale();
        assert!(s.is_finite() && s > 0.0);
    }
}
