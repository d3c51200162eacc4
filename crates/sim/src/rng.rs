//! Seedable, reproducible randomness for workload generation.
//!
//! All stochastic choices in the simulation (flow start jitter, RPC
//! inter-arrival times, key/value selection in the application models, fault
//! injection) draw from a [`SimRng`] seeded from the experiment
//! configuration, so every run is reproducible.

/// A deterministic random number generator for simulation use.
///
/// Implements xoshiro256++ with SplitMix64 seed expansion — hand-rolled so
/// the simulation has zero external dependencies and the bit stream is
/// stable across toolchains. The wrapper exposes only the handful of
/// distributions the simulation needs.
///
/// # Examples
///
/// ```
/// use fns_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

// The raw xoshiro256++ state: a restored generator resumes the exact stream.
fns_snap::snap_fields!(SimRng { s });

/// Weyl increment used by SplitMix64 and for salt mixing.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64 expansion guarantees a non-zero xoshiro state for every
        // seed, including 0.
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator, e.g. one per flow.
    ///
    /// The child stream is a deterministic function of the parent state and
    /// `salt`, so adding a new consumer does not perturb existing streams as
    /// long as salts are stable.
    pub fn fork(&self, salt: u64) -> Self {
        // Peek the parent's next output without advancing it; the parent's
        // own stream is left untouched.
        let mut probe = self.clone();
        let base = probe.next_u64();
        Self::seed(base ^ salt.wrapping_mul(GOLDEN_GAMMA))
    }

    /// Uniform `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        // Lemire's multiply-shift maps the 64-bit draw onto the span; the
        // bias is < 2^-64 per draw, far below anything the simulation can
        // observe.
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed duration with the given mean (nanoseconds).
    ///
    /// Used for Poisson arrival processes in the RPC workload. Returns at
    /// least 1 ns so arrival processes always make progress.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u: f64 = self.next_f64();
        // Avoid ln(0).
        let u = u.max(1e-12);
        let x = -mean_ns * u.ln();
        (x.max(1.0)) as u64
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index into empty slice");
        self.range(0, len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed(123);
        let mut b = SimRng::seed(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::seed(0);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&v| v != 0));
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let parent = SimRng::seed(9);
        let mut c1 = parent.fork(1);
        let mut c1b = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_leaves_parent_untouched() {
        let parent = SimRng::seed(9);
        let mut a = parent.clone();
        let _child = parent.fork(77);
        let mut b = parent.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_bounds() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_span() {
        let mut r = SimRng::seed(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.range(0, 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn: {seen:?}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::seed(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exp_ns_mean_roughly_right() {
        let mut r = SimRng::seed(42);
        let n = 20_000;
        let mean = 1000.0;
        let total: u64 = (0..n).map(|_| r.exp_ns(mean)).sum();
        let emp = total as f64 / n as f64;
        assert!((emp - mean).abs() < mean * 0.05, "empirical mean {emp}");
    }

    #[test]
    fn exp_ns_is_positive() {
        let mut r = SimRng::seed(42);
        for _ in 0..1000 {
            assert!(r.exp_ns(0.5) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed(0).range(5, 5);
    }
}
