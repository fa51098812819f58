//! A fixed-bin `f64` distribution — the registry's one value-shape metric.
//!
//! A [`Distribution`] covers a caller-chosen `[min, max)` range with
//! equal-width bins, which is what drift monitoring needs: two
//! distributions recorded against the *same* binning are directly
//! comparable (e.g. via a population-stability index). Values outside the
//! range and NaNs are not dropped — they land in dedicated underflow /
//! overflow / NaN buckets, because a rising NaN rate (dead modems, parse
//! failures) is itself a drift signal.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-range, equal-width-bin `f64` distribution with atomic counts.
///
/// The range and bin count are chosen at creation and never change, so
/// concurrent recorders only touch atomics. `+∞` goes to overflow, `-∞` to
/// underflow, NaN to its own bucket.
#[derive(Debug)]
pub struct Distribution {
    min: f64,
    max: f64,
    width: f64,
    bins: Box<[AtomicU64]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    nan: AtomicU64,
}

impl Distribution {
    /// Creates a distribution over `[min, max)` with `n_bins` equal-width
    /// bins.
    ///
    /// # Panics
    /// If `n_bins == 0`, the bounds are non-finite, or `min >= max`.
    pub fn new(min: f64, max: f64, n_bins: usize) -> Self {
        assert!(n_bins > 0, "distribution needs at least one bin");
        assert!(min.is_finite() && max.is_finite(), "distribution bounds must be finite");
        assert!(min < max, "distribution needs min < max (got {min} >= {max})");
        Distribution {
            min,
            max,
            width: (max - min) / n_bins as f64,
            bins: (0..n_bins).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            nan: AtomicU64::new(0),
        }
    }

    /// Lower bound of the binned range.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the binned range.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of in-range bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            self.nan.fetch_add(1, Ordering::Relaxed);
        } else if v < self.min {
            self.underflow.fetch_add(1, Ordering::Relaxed);
        } else if v >= self.max {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            // In-range and finite; float rounding can still land exactly on
            // n_bins when v is a hair under max, so clamp.
            let i = (((v - self.min) / self.width) as usize).min(self.bins.len() - 1);
            self.bins[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records every sample in a slice.
    pub fn record_all(&self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// A point-in-time copy (per-bin reads are independent; concurrent
    /// writers may skew bins against each other).
    pub fn snapshot(&self) -> DistributionSnapshot {
        DistributionSnapshot {
            min: self.min,
            max: self.max,
            counts: self.bins.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            nan: self.nan.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Distribution`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionSnapshot {
    /// Lower bound of the binned range.
    pub min: f64,
    /// Upper bound of the binned range.
    pub max: f64,
    /// Per-bin sample counts; bin `i` covers
    /// `[min + i*w, min + (i+1)*w)` with `w = (max - min) / counts.len()`.
    pub counts: Vec<u64>,
    /// Samples below `min` (including `-∞`).
    pub underflow: u64,
    /// Samples at or above `max` (including `+∞`).
    pub overflow: u64,
    /// NaN samples.
    pub nan: u64,
}

impl DistributionSnapshot {
    /// Total number of recorded samples, out-of-range and NaN included.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow + self.nan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_the_range_half_open() {
        let d = Distribution::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 5.0, 9.999] {
            d.record(v);
        }
        let s = d.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 0, 1]);
        assert_eq!((s.underflow, s.overflow, s.nan), (0, 0, 0));
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn out_of_range_and_nan_land_in_side_buckets() {
        let d = Distribution::new(-1.0, 1.0, 4);
        d.record_all(&[-2.0, f64::NEG_INFINITY, 1.0, 57.0, f64::INFINITY, f64::NAN]);
        let s = d.snapshot();
        assert_eq!(s.counts.iter().sum::<u64>(), 0);
        assert_eq!(s.underflow, 2);
        assert_eq!(s.overflow, 3, "max itself is exclusive");
        assert_eq!(s.nan, 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn value_just_below_max_stays_in_last_bin() {
        // 0.1-width bins with a binary-unrepresentable edge: the classic
        // rounding trap for (v - min) / width.
        let d = Distribution::new(0.0, 0.3, 3);
        d.record(0.3_f64.next_down());
        let s = d.snapshot();
        assert_eq!(s.counts, vec![0, 0, 1]);
        assert_eq!(s.overflow, 0);
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn rejects_inverted_range() {
        Distribution::new(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn rejects_zero_bins() {
        Distribution::new(0.0, 1.0, 0);
    }
}
