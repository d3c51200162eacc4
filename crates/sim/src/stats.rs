//! Measurement primitives: histograms, running means, reuse distances.
//!
//! These stand in for the paper's measurement tooling: PCM hardware counters
//! (plain counters on each model), netperf latency percentiles
//! ([`Histogram`]), and the PTcache-L3 locality analysis of Figures 2e/3e/7e/8e
//! ([`ReuseDistance`], summarised exactly by [`DistanceHist`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use fns_snap::snap_fields;

/// A log-linear histogram for latency-like values, HDR-histogram style.
///
/// Values are bucketed into octaves each split into 32 linear sub-buckets,
/// giving a worst-case relative quantile error of ~3%. This is the same
/// trade-off netperf-style tools make and is plenty for reproducing the
/// paper's P50–P99.99 whisker plot (Figure 9).
///
/// # Examples
///
/// ```
/// use fns_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((480..=530).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

snap_fields!(Histogram {
    buckets,
    count,
    sum,
    min,
    max
});

const SUB_BUCKETS: u32 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            // 64 octaves x 32 sub-buckets covers all of u64.
            buckets: vec![0; (64 * SUB_BUCKETS) as usize],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
        let octave = msb - SUB_BITS + 1;
        let sub = (v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        (octave * SUB_BUCKETS) as usize + sub as usize
    }

    /// Upper bound of the bucket with the given index (the value reported
    /// for quantiles falling in that bucket).
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        let octave = idx >> SUB_BITS;
        let sub = idx & (SUB_BUCKETS as u64 - 1);
        if octave == 0 {
            return sub;
        }
        let shift = octave - 1;
        ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at percentile `p` (0–100), within ~3% relative
    /// error. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact histogram of reuse distances: a count per distance value plus the
/// number of first accesses, which have no distance.
///
/// A reuse distance is below the number of distinct keys, so the histogram
/// is O(distinct keys) however long the stream runs. Counts add, so run,
/// shard and domain histograms merge exactly, and every summary (mean, tail
/// fraction, order statistic) equals the one computed from the full list of
/// distances.
///
/// # Examples
///
/// ```
/// use fns_sim::stats::DistanceHist;
///
/// let mut h = DistanceHist::new();
/// for d in [None, Some(3), Some(1), None, Some(1)] {
///     h.record(d);
/// }
/// assert_eq!(h.samples(), 5);
/// assert_eq!(h.reaccesses(), 3);
/// // Sorted re-access distances are [1, 1, 3].
/// assert_eq!(h.value_at_rank(1), Some(1));
/// assert_eq!(h.value_at_rank(2), Some(3));
/// assert_eq!(h.value_at_rank(3), None);
/// assert_eq!(h.fraction_at_least(2), 1.0 / 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DistanceHist {
    first: u64,
    // counts[d] = re-accesses at distance d. May carry trailing zeros.
    counts: Vec<u64>,
}

snap_fields!(DistanceHist { first, counts });

impl DistanceHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one access: `None` for a first access, else its distance.
    pub fn record(&mut self, d: Option<u64>) {
        match d {
            None => self.first += 1,
            Some(d) => {
                let i = d as usize;
                if i >= self.counts.len() {
                    self.counts.resize(i + 1, 0);
                }
                self.counts[i] += 1;
            }
        }
    }

    /// Forgets every count, keeping the bucket storage.
    pub fn clear(&mut self) {
        self.first = 0;
        self.counts.fill(0);
    }

    /// Adds another histogram's counts to this one.
    pub fn merge(&mut self, other: &DistanceHist) {
        self.first += other.first;
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Number of accesses counted, first accesses included.
    pub fn samples(&self) -> u64 {
        self.first + self.reaccesses()
    }

    /// Number of re-accesses (accesses with a distance).
    pub fn reaccesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean re-access distance (0 if there are none). The integer sum and
    /// count are those of the full distance list, so the result is the
    /// same `f64` as `sum as f64 / len as f64` over that list.
    pub fn mean(&self) -> f64 {
        let n = self.reaccesses();
        if n == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().zip(0u64..).map(|(&c, d)| c * d).sum();
        sum as f64 / n as f64
    }

    /// Fraction of re-accesses whose distance is at least `threshold`
    /// (i.e. likely misses in a cache of `threshold` entries).
    pub fn fraction_at_least(&self, threshold: u64) -> f64 {
        let n = self.reaccesses();
        if n == 0 {
            return 0.0;
        }
        let skip = usize::try_from(threshold).unwrap_or(usize::MAX);
        let over: u64 = self.counts.iter().skip(skip).sum();
        over as f64 / n as f64
    }

    /// The re-access distance at index `rank` of the ascending sorted list
    /// of distances, `None` if `rank` is past its end.
    pub fn value_at_rank(&self, rank: u64) -> Option<u64> {
        let mut seen = 0;
        for (&c, d) in self.counts.iter().zip(0u64..) {
            seen += c;
            if seen > rank {
                return Some(d);
            }
        }
        None
    }
}

/// Equal when every count is equal; trailing zero buckets left by
/// [`DistanceHist::clear`] do not matter.
impl PartialEq for DistanceHist {
    fn eq(&self, other: &Self) -> bool {
        fn trimmed(c: &[u64]) -> &[u64] {
            &c[..c.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1)]
        }
        self.first == other.first && trimmed(&self.counts) == trimmed(&other.counts)
    }
}

impl Eq for DistanceHist {}

/// Running mean/total tracker for per-page rates (e.g. misses per page).
///
/// # Examples
///
/// ```
/// use fns_sim::stats::MeanTracker;
///
/// let mut m = MeanTracker::new();
/// m.add(2.0);
/// m.add(4.0);
/// assert_eq!(m.mean(), 3.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanTracker {
    sum: f64,
    count: u64,
}

impl MeanTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// Mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Reuse-distance tracker over an access stream of keys.
///
/// For each access, records the number of *distinct other keys* touched since
/// the previous access to the same key (`None` on first access). This is
/// exactly the Y axis of the paper's locality panels (Figures 2e, 3e, 7e,
/// 8e), where keys are PTcache-L3 entries (i.e. PT-L4 page addresses) touched
/// by successive IOVA allocations: an access whose reuse distance exceeds the
/// cache size is a likely capacity miss.
///
/// Uses the classic Fenwick-tree (binary indexed tree) algorithm over
/// *compacted* positions, O(log D) per access for D distinct keys. The tree
/// holds one marker per key, at the slot of its most recent access. When the
/// slots run out, the D live markers are renumbered `0..D` in access order
/// and the tree is rebuilt with room for at least D more accesses (the stack
/// compaction of Bennett & Kruskal, "LRU stack processing", 1975). A distance
/// depends only on the relative order of markers, so compaction never
/// changes one, and the tracker stays O(D) in memory however long the stream
/// runs. Distances are counted in a [`DistanceHist`], not stored.
///
/// # Examples
///
/// ```
/// use fns_sim::stats::ReuseDistance;
///
/// let mut rd = ReuseDistance::new();
/// let ds: Vec<_> = [1u64, 2, 3, 1].into_iter().map(|k| rd.access(k)).collect();
/// // Key 1 is re-accessed after 2 distinct other keys (2 and 3).
/// assert_eq!(ds, [None, None, None, Some(2)]);
/// assert_eq!(rd.hist().samples(), 4);
/// assert_eq!(rd.hist().mean(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseDistance {
    // Fenwick tree over slots, 1-based internally; a slot holds 1 iff it is
    // some key's most recent access. Its length is the slot capacity.
    tree: Vec<u64>,
    // Key -> slot of its most recent access.
    last_pos: HashMap<u64, usize, BuildHasherDefault<Mul64Hasher>>,
    // First unused slot since the last compaction.
    next: usize,
    n_accesses: usize,
    hist: DistanceHist,
}

// The Fenwick tree travels verbatim (physical state), the position map
// sorted by key.
snap_fields!(ReuseDistance {
    tree,
    last_pos,
    next,
    n_accesses,
    hist
});

/// Multiply-shift hasher for the u64 page keys in `last_pos`. The tracker
/// runs on every recorded page map, and the default SipHash is the single
/// costliest part of that path; Fibonacci multiplication mixes 64-bit keys
/// more than well enough for a position map nobody iterates. Only the
/// lookup/insert behaviour of the map is observable, so the swap cannot
/// change any recorded distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mul64Hasher(u64);

impl Hasher for Mul64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The multiply pushes entropy toward the high bits; hashbrown takes
        // its bucket index from the top, so no extra finalizer is needed.
        self.0
    }
}

impl ReuseDistance {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn tree_add(&mut self, pos: usize, delta: i64) {
        let mut i = pos + 1;
        while i <= self.tree.len() {
            let slot = &mut self.tree[i - 1];
            *slot = slot.wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of "most recent occurrence" markers in slots `[0, i]`.
    fn tree_sum(&self, i: usize) -> u64 {
        let mut s = 0u64;
        let mut j = i + 1;
        while j > 0 {
            s = s.wrapping_add(self.tree[j - 1]);
            j -= j & j.wrapping_neg();
        }
        s
    }

    /// Renumbers the live markers `0..D` in access order and rebuilds the
    /// tree with capacity `max(64, 2D)` rounded up to a power of two.
    fn compact(&mut self) {
        let live = self.last_pos.len();
        let mut slots: Vec<&mut usize> = self.last_pos.values_mut().collect();
        slots.sort_unstable_by_key(|s| **s);
        for (i, s) in slots.into_iter().enumerate() {
            *s = i;
        }
        let cap = (2 * live).next_power_of_two().max(64);
        // Node i (1-based) covers slots [i - lowbit(i), i); markers fill
        // slots [0, live).
        self.tree.clear();
        self.tree.extend((1..=cap).map(|i| {
            let lo = i - (i & i.wrapping_neg());
            i.min(live).saturating_sub(lo) as u64
        }));
        self.next = live;
    }

    /// Records an access to `key`, counts its reuse distance in
    /// [`ReuseDistance::hist`] and returns it.
    pub fn access(&mut self, key: u64) -> Option<u64> {
        if self.next == self.tree.len() {
            self.compact();
        }
        let pos = self.next;
        self.next += 1;
        self.n_accesses += 1;
        // One live marker per distinct key seen so far, all below `pos`.
        let live = self.last_pos.len() as u64;
        let dist = self.last_pos.insert(key, pos).map(|prev| {
            // Distinct keys accessed since `prev`: the markers after it.
            let d = live - self.tree_sum(prev);
            self.tree_add(prev, -1);
            d
        });
        self.tree_add(pos, 1);
        self.hist.record(dist);
        dist
    }

    /// Forgets every recorded access while keeping the tree, position-map
    /// and histogram storage — the arena hook for back-to-back runs.
    pub fn reset(&mut self) {
        self.tree.clear();
        self.last_pos.clear();
        self.next = 0;
        self.n_accesses = 0;
        self.hist.clear();
    }

    /// Histogram of the distances recorded since creation, [`reset`] or
    /// the last clear through [`ReuseDistance::hist_mut`].
    ///
    /// [`reset`]: ReuseDistance::reset
    pub fn hist(&self) -> &DistanceHist {
        &self.hist
    }

    /// Mutable access to the histogram, to clear it at a measurement
    /// boundary or move it out. The tracker's own state is unaffected, so
    /// later distances still count keys seen before the boundary.
    pub fn hist_mut(&mut self) -> &mut DistanceHist {
        &mut self.hist
    }

    /// Number of recorded accesses (the histogram's clears do not reset it).
    pub fn len(&self) -> usize {
        self.n_accesses
    }

    /// Returns `true` if no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.n_accesses == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.percentile(0.0), 777);
        assert_eq!(h.percentile(100.0), 777);
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        // Sub-32 values are bucketed exactly.
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_percentile_accuracy() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let est = h.percentile(p) as f64;
            let exact = p / 100.0 * 100_000.0;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.04, "p{p}: est {est} vs exact {exact}");
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.min(), 1);
        let p50 = a.percentile(50.0);
        assert!((480..=530).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert_eq!(h.mean(), 30.0);
    }

    #[test]
    fn mean_tracker() {
        let mut m = MeanTracker::new();
        assert_eq!(m.mean(), 0.0);
        m.add(1.0);
        m.add(2.0);
        m.add(3.0);
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.count(), 3);
    }

    /// Feeds `keys` through `rd`, returning every access's distance.
    fn run(rd: &mut ReuseDistance, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|&k| rd.access(k)).collect()
    }

    #[test]
    fn reuse_distance_basic() {
        let mut rd = ReuseDistance::new();
        // a b c a b b
        assert_eq!(
            run(&mut rd, &[0, 1, 2, 0, 1, 1]),
            [None, None, None, Some(2), Some(2), Some(0)]
        );
    }

    #[test]
    fn reuse_distance_repeated_same_key() {
        let mut rd = ReuseDistance::new();
        assert_eq!(run(&mut rd, &[42; 5])[1..], [Some(0); 4]);
    }

    #[test]
    fn reuse_distance_counts_distinct_not_total() {
        let mut rd = ReuseDistance::new();
        // a b b b a -> distance for final a is 1 (only b between).
        assert_eq!(run(&mut rd, &[0, 1, 1, 1, 0])[4], Some(1));
    }

    #[test]
    fn reuse_distance_fraction() {
        let mut rd = ReuseDistance::new();
        // Cyclic access over 4 keys: every re-access has distance 3.
        for i in 0..40u64 {
            rd.access(i % 4);
        }
        let h = rd.hist();
        assert_eq!(h.fraction_at_least(4), 0.0);
        assert_eq!(h.fraction_at_least(3), 1.0);
        assert!(h.fraction_at_least(2) > 0.99);
    }

    #[test]
    fn reuse_distance_matches_naive_on_random_stream() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(11);
        let keys: Vec<u64> = (0..2000).map(|_| rng.range(0, 50)).collect();
        let mut rd = ReuseDistance::new();
        let mut naive_last: HashMap<u64, usize> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            let got = rd.access(k);
            let expected = naive_last.get(&k).map(|&p| {
                let mut set = std::collections::HashSet::new();
                for &kk in &keys[p + 1..i] {
                    set.insert(kk);
                }
                set.len() as u64
            });
            assert_eq!(got, expected, "at access {i}");
            naive_last.insert(k, i);
        }
    }

    /// A seeded stream over exactly `d` keys, drawn from a move-to-front LRU
    /// stack: each access either introduces a new key or re-touches the key
    /// at a log-uniformly chosen stack depth. Returns the keys and the
    /// reference distances (the depth, `None` for a new key).
    fn lru_stack_stream(d: usize, n: usize, seed: u64) -> (Vec<u64>, Vec<Option<u64>>) {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(seed);
        let mut stack: Vec<u64> = Vec::new(); // most recent last
        let (mut keys, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            if stack.len() < d && (stack.is_empty() || rng.chance(0.05)) {
                // Scattered key values exercise the hasher like page keys do.
                let key = (stack.len() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                stack.push(key);
                keys.push(key);
                want.push(None);
                continue;
            }
            let bits = usize::BITS - stack.len().leading_zeros();
            let span = 1usize << rng.index(bits as usize + 1);
            let depth = rng.index(span.min(stack.len()));
            let key = stack.remove(stack.len() - 1 - depth);
            stack.push(key);
            keys.push(key);
            want.push(Some(depth as u64));
        }
        assert_eq!(stack.len(), d, "stream must touch all {d} keys");
        (keys, want)
    }

    #[test]
    fn compacted_tracker_matches_lru_stack_reference() {
        for (d, seed) in [(1usize, 1u64), (7, 2), (300, 3), (5000, 4)] {
            let n = 120_000;
            let (keys, want) = lru_stack_stream(d, n, seed);
            let mut rd = ReuseDistance::new();
            let mut resumed: Option<ReuseDistance> = None;
            let (mut compactions, mut last_next, mut distinct) = (0, 0, 0);
            for (i, (&k, &w)) in keys.iter().zip(&want).enumerate() {
                // Snapshot mid-stream, off any compaction boundary; the copy
                // must continue identically.
                if i == n / 2 + 17 {
                    let mut sw = SnapWriter::new();
                    rd.snap(&mut sw);
                    let bytes = sw.finish();
                    let mut r = SnapReader::new(&bytes).unwrap();
                    resumed = Some(ReuseDistance::unsnap(&mut r).unwrap());
                    r.done().unwrap();
                }
                assert_eq!(rd.access(k), w, "D={d}, access {i}");
                if let Some(copy) = resumed.as_mut() {
                    assert_eq!(copy.access(k), w, "resumed D={d}, access {i}");
                }
                distinct += usize::from(w.is_none());
                assert!(
                    rd.tree.len() <= (4 * distinct).max(64),
                    "D={d}: capacity {} for {distinct} keys",
                    rd.tree.len()
                );
                compactions += usize::from(rd.next < last_next);
                last_next = rd.next;
            }
            assert!(compactions >= 5, "D={d}: only {compactions} compactions");
            let copy = resumed.unwrap();
            assert_eq!(copy.hist(), rd.hist());
            assert_eq!(copy.len(), n);
            let mut expect = DistanceHist::new();
            want.iter().for_each(|&w| expect.record(w));
            assert_eq!(rd.hist(), &expect, "D={d}");
        }
    }

    #[test]
    fn reset_tracker_matches_fresh() {
        let (keys, want) = lru_stack_stream(40, 5000, 9);
        let mut rd = ReuseDistance::new();
        run(&mut rd, &keys[..3000]);
        rd.reset();
        assert!(rd.is_empty());
        assert_eq!(run(&mut rd, &keys), want);
    }

    /// The summaries the locality panel used to compute from the full list
    /// of distances, for comparison.
    fn list_mean(ds: &[Option<u64>]) -> f64 {
        let vals: Vec<u64> = ds.iter().filter_map(|d| *d).collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<u64>() as f64 / vals.len() as f64
    }

    fn random_distances(seed: u64, n: usize, max: u64) -> Vec<Option<u64>> {
        let mut rng = crate::rng::SimRng::seed(seed);
        (0..n)
            .map(|_| (!rng.chance(0.1)).then(|| rng.range(0, max)))
            .collect()
    }

    fn hist_of(ds: &[Option<u64>]) -> DistanceHist {
        let mut h = DistanceHist::new();
        ds.iter().for_each(|&d| h.record(d));
        h
    }

    #[test]
    fn distance_hist_merge_equals_concatenated_stream() {
        // Shards with different distance ranges, so bucket vectors differ
        // in length.
        let shards = [
            random_distances(1, 4000, 9),
            random_distances(2, 0, 1),
            random_distances(3, 2500, 60),
            random_distances(4, 700, 3),
        ];
        let mut merged = DistanceHist::new();
        for s in &shards {
            merged.merge(&hist_of(s));
        }
        let all = shards.concat();
        assert_eq!(merged, hist_of(&all));
        assert_eq!(merged.samples(), all.len() as u64);
        assert_eq!(merged.mean().to_bits(), list_mean(&all).to_bits());
    }

    #[test]
    fn distance_hist_summaries_match_the_distance_list() {
        for (seed, n, max) in [
            (5u64, 1usize, 4u64),
            (6, 999, 7),
            (7, 20_000, 300),
            (8, 3, 1),
        ] {
            let ds = random_distances(seed, n, max);
            let h = hist_of(&ds);
            let mut sorted: Vec<u64> = ds.iter().filter_map(|d| *d).collect();
            sorted.sort_unstable();
            assert_eq!(h.reaccesses(), sorted.len() as u64);
            assert_eq!(h.mean().to_bits(), list_mean(&ds).to_bits(), "seed {seed}");
            for p in 0..=100 {
                if let Some(last) = sorted.len().checked_sub(1) {
                    let i = last * p / 100;
                    assert_eq!(h.value_at_rank(i as u64), Some(sorted[i]), "p{p}");
                }
            }
            assert_eq!(h.value_at_rank(sorted.len() as u64), None);
            for t in [0, 1, 4, 16, 1000] {
                let over = sorted.iter().filter(|&&d| d >= t).count();
                let want = if sorted.is_empty() {
                    0.0
                } else {
                    over as f64 / sorted.len() as f64
                };
                assert_eq!(h.fraction_at_least(t).to_bits(), want.to_bits());
            }
        }
        let empty = DistanceHist::new();
        assert_eq!((empty.mean(), empty.fraction_at_least(0)), (0.0, 0.0));
        assert_eq!(empty.value_at_rank(0), None);
    }

    #[test]
    fn distance_hist_equality_ignores_trailing_zero_buckets() {
        let mut cleared = DistanceHist::new();
        cleared.record(Some(40));
        cleared.clear();
        cleared.record(Some(2));
        cleared.record(None);
        let fresh = hist_of(&[None, Some(2)]);
        assert_eq!(cleared, fresh);
        assert_eq!(fresh, cleared);
        assert_ne!(cleared, hist_of(&[None, Some(3)]));
        assert_ne!(cleared, hist_of(&[Some(2)]));
        let mut w = SnapWriter::new();
        cleared.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(DistanceHist::unsnap(&mut r).unwrap(), fresh);
    }
}
