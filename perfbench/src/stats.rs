//! Order statistics for host-time samples.
//!
//! Host time on a shared machine drifts for seconds at a time, so every
//! timing is reported as a median over interleaved repeats, never as a
//! best-of-N minimum. A tail is reported only at a percentile that still
//! has at least [`TAIL_SAMPLES`] samples beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles considered for the tail, in tenths of a percent, highest
/// first (integers, so the rank arithmetic is exact).
const TAIL_LEVELS: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest percentile of [`TAIL_LEVELS`] that leaves at least
/// [`TAIL_SAMPLES`] samples strictly above its rank, with its value.
/// `None` when even the median has fewer than that beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_LEVELS.iter().find_map(|&permille| {
        let beyond = n - (n * permille).div_ceil(1000);
        (beyond >= TAIL_SAMPLES).then(|| {
            let q = permille as f64 / 1000.0;
            (
                permille as f64 / 10.0,
                quantile(samples, q).expect("non-empty"),
            )
        })
    })
}

/// Summary line for a timing: median, tail (when one qualifies) and the
/// sample count.
pub fn describe(samples: &[f64]) -> String {
    let med = median(samples).unwrap_or(f64::NAN);
    match tail(samples) {
        Some((p, v)) => format!("median {med:.6}  p{p} {v:.6}  n={}", samples.len()),
        None => format!(
            "median {med:.6}  (no tail: n={} < {} beyond p50)",
            samples.len(),
            TAIL_SAMPLES
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 0.25), Some(25.0));
        assert_eq!(quantile(&[5.0], 0.9), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median leaves 9 beyond it, so no tail qualifies.
        let s: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        // 20 samples: p50 leaves exactly 10.
        let s: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(50.0));
        // 1000 samples: p99 leaves exactly 10, p99.9 only 1.
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(99.0));
        // 10_000 samples: p99.9 leaves 10.
        let s: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(99.9));
    }
}
