//! Order statistics for the benchmark's samples.
//!
//! Percentiles use linear interpolation between closest ranks (the
//! `numpy.percentile` default); the interquartile range uses the same
//! convention as Python's `statistics.quantiles(values, n=4)`
//! ("exclusive" method), so a spread computed here matches one computed
//! from the printed values.

/// The `q`-th percentile (`0 ≤ q ≤ 100`) of `samples` by linear
/// interpolation between closest ranks. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (q.clamp(0.0, 100.0) / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The arithmetic mean of `samples`. `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples`. `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// computes them (exclusive method: the `k`-th cut point sits at rank
/// `k·(n+1)/4`, interpolated between the two nearest interior ranks, and
/// extrapolated past them for tiny samples exactly as Python does). A
/// single sample yields `(x, x)` and an empty slice `(NaN, NaN)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |k: usize| {
        let m = (n + 1) as f64 * k as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the spread measure the
/// benchmark's bounds are stated in.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// The highest whole percentile (capped at 99) that still has at least
/// `min_beyond` samples strictly above its rank, for `n` samples — the
/// "tail" a latency metric can honestly report. With 52 weekly samples and
/// `min_beyond = 10` this is p80; with thousands of samples it is p99.
/// Falls back to the median when `n` is too small for any tail.
pub fn tail_percentile(n: usize, min_beyond: usize) -> u32 {
    if n == 0 {
        return 50;
    }
    // Samples beyond pq are n·(100 − q)/100 ≥ min_beyond, in integers.
    let q = 100usize.saturating_sub((100 * min_beyond).div_ceil(n));
    q.clamp(50, 99) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 80.0) - 3.4).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(mean(&[3.0, 1.0, 2.0, 10.0]), 4.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two samples extrapolate, as Python does: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let scaled: Vec<f64> = s.iter().map(|v| v * 1000.0).collect();
        assert!((relative_iqr(&s) - 1.0).abs() < 1e-12);
        assert!((relative_iqr(&scaled) - relative_iqr(&s)).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 52 Saturdays: p80 leaves 10.4 samples above it, p81 only 9.9.
        assert_eq!(tail_percentile(52, 10), 80);
        // Thousands of dispatches: capped at p99.
        assert_eq!(tail_percentile(2635, 10), 99);
        // 44 samples: p77 leaves 10.1 beyond.
        assert_eq!(tail_percentile(44, 10), 77);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(12, 10), 50);
        assert_eq!(tail_percentile(0, 10), 50);
        // The rule itself: at least `min_beyond` samples above the rank.
        assert_eq!(tail_percentile(100, 10), 90);
        for n in [20usize, 52, 100, 333, 2635] {
            let q = tail_percentile(n, 10) as usize;
            if q > 50 && q < 99 {
                assert!(n * (100 - q) >= 1000, "n={n} q={q}");
                assert!(n * (100 - q - 1) < 1000, "n={n} q={q}");
            }
        }
    }
}
