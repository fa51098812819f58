//! Scalar statistics helpers: error function, normal CDF, logistic function,
//! running moments, and NaN-aware summaries.
//!
//! Nothing here allocates; these are the numeric primitives the rest of the
//! crate builds on.

/// The logistic (sigmoid) function `1 / (1 + exp(-x))`.
///
/// Written to be overflow-safe for large `|x|`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Natural logarithm clamped away from zero, for use in entropy and
/// log-likelihood computations where an argument of exactly zero should
/// contribute zero rather than `-inf`.
#[inline]
pub fn xlogx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

/// Error function via the Abramowitz & Stegun 7.1.26 rational approximation.
///
/// Maximum absolute error is about `1.5e-7`, which is ample for the Wald
/// p-values reported in the Table-5 reproduction.
pub fn erf(x: f64) -> f64 {
    // Constants from Abramowitz & Stegun 7.1.26.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[inline]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Two-sided p-value for a standard-normal test statistic (Wald test).
#[inline]
pub fn two_sided_p(z: f64) -> f64 {
    2.0 * (1.0 - normal_cdf(z.abs()))
}

/// Numerically stable running mean / variance accumulator (Welford).
///
/// `NaN` observations are ignored, so this can be fed raw measurement columns
/// that contain missing records.
#[derive(Debug, Clone, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation. `NaN` values are skipped.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of non-missing observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations, or `NaN` if none were seen.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance, or `NaN` if no observations were seen.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel-friendly).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of the non-missing entries using linear
/// interpolation between order statistics. Returns `NaN` for an all-missing
/// slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Spearman rank correlation between two equal-length slices.
///
/// Ties get midranks; returns `NaN` if either input has no variance or the
/// slices are shorter than 2. Used to compare how similarly two
/// feature-selection criteria order the candidate features.
///
/// ```
/// use nevermind_ml::stats::spearman;
/// let a = [1.0, 2.0, 3.0];
/// let monotone = [10.0, 100.0, 1000.0];
/// assert!((spearman(&a, &monotone) - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.len() < 2 {
        return f64::NAN;
    }
    let ra = midranks(a);
    let rb = midranks(b);
    pearson(&ra, &rb)
}

fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
    let mut ranks = vec![0f64; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = mid;
        }
        i = j + 1;
    }
    ranks
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return f64::NAN;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// An empirical cumulative distribution function over observed values.
///
/// Used by the Fig-8 reproduction (CDF of days from prediction to ticket).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from observations; `NaN`s are dropped.
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| !x.is_nan());
        xs.sort_by(f64::total_cmp);
        Self { sorted: xs }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluates the ECDF on a grid of points.
    pub fn curve(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.eval(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-6);
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation is accurate to ~1.5e-7, not machine
        // precision.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn two_sided_p_matches_significance_convention() {
        // |z| = 1.96 should give p ≈ 0.05.
        assert!((two_sided_p(1.96) - 0.05).abs() < 2e-3);
        assert!(two_sided_p(5.0) < 1e-5);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut m = RunningMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_skips_nan() {
        let mut m = RunningMoments::new();
        m.push(1.0);
        m.push(f64::NAN);
        m.push(3.0);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn moments_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_nan() {
        let xs = [f64::NAN, 1.0, f64::NAN, 3.0];
        assert!((quantile(&xs, 0.5) - 2.0).abs() < 1e-12);
        assert!(quantile(&[f64::NAN], 0.5).is_nan());
    }

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!((e.eval(0.5) - 0.0).abs() < 1e-12);
        assert!((e.eval(2.0) - 0.75).abs() < 1e-12);
        assert!((e.eval(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_drops_nan_and_handles_empty() {
        let e = Ecdf::new(vec![f64::NAN]);
        assert!(e.is_empty());
        assert!(e.eval(1.0).is_nan());
    }

    #[test]
    fn spearman_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [9.0, 7.0, 5.0, 1.0];
        assert!((spearman(&a, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but non-linear transform leaves Spearman at 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b: Vec<f64> = a.iter().map(|x: &f64| x.exp()).collect();
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_and_degenerates() {
        let a = [1.0, 1.0, 2.0, 2.0];
        let b = [1.0, 1.0, 2.0, 2.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let flat = [3.0, 3.0, 3.0, 3.0];
        assert!(spearman(&a, &flat).is_nan());
        assert!(spearman(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn xlogx_zero_at_zero() {
        assert_eq!(xlogx(0.0), 0.0);
        assert_eq!(xlogx(-1.0), 0.0);
        assert!((xlogx(1.0)).abs() < 1e-12);
        assert!((xlogx(0.5) - 0.5 * 0.5f64.ln()).abs() < 1e-12);
    }
}
