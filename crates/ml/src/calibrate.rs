//! Platt scaling — the paper's "logistic calibration" step that converts
//! boosting margins into posterior probabilities `P(Tkt(u)|x)`.
//!
//! Implementation follows Platt (1999) with the numerically robust Newton
//! iteration of Lin, Lin & Weng (2007), including the prior-corrected target
//! probabilities that keep the fit well-behaved on heavily imbalanced data —
//! exactly the regime of ticket prediction, where positives are below 1% —
//! and its Armijo backtracking line search. It stops when the Newton
//! decrement falls below a floor proportional to the row count: the NLL is
//! a sum over the rows, so a fixed threshold would sit below its rounding
//! once there are enough of them. That is why Lin, Lin & Weng's own stop,
//! an absolute gradient bound of `1e-5`, is not used: on the 80k-row
//! calibration window of a 20k-line trial the gradient's rounding floor
//! is near `1e-4`, and that rule made 79 NLL evaluations where this one
//! makes 6.

use crate::stats::sigmoid;
use serde::{Deserialize, Serialize};

/// Why a calibration fit was rejected before any Newton step ran.
///
/// Calibration sits downstream of feature extraction, so malformed
/// operational data (an empty evaluation window, a NaN margin from a
/// corrupted measurement) surfaces here first; returning it as an error lets
/// the pipeline skip the week instead of crashing mid-dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrateError {
    /// No `(margin, label)` pairs at all — e.g. an evaluation window that
    /// contains zero scored line-days.
    Empty,
    /// `margins` and `labels` disagree in length.
    LengthMismatch {
        /// Number of margins supplied.
        margins: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A margin is NaN or infinite (index of the first offender).
    NonFiniteMargin {
        /// Index of the first non-finite margin.
        index: usize,
    },
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "cannot calibrate on empty data"),
            Self::LengthMismatch { margins, labels } => {
                write!(f, "margin/label mismatch: {margins} margins vs {labels} labels")
            }
            Self::NonFiniteMargin { index } => {
                write!(f, "non-finite margin at index {index}")
            }
        }
    }
}

impl std::error::Error for CalibrateError {}

/// A fitted sigmoid map `p = σ(a·margin + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlattScale {
    /// Slope applied to the margin.
    pub a: f64,
    /// Intercept.
    pub b: f64,
}

impl PlattScale {
    /// Fits the sigmoid on `(margin, label)` pairs.
    ///
    /// # Errors
    /// Returns [`CalibrateError`] when the slices differ in length, are
    /// empty, or contain a non-finite margin — all symptoms of a malformed
    /// week of measurements that should be skipped, not panicked on.
    pub fn fit(margins: &[f64], labels: &[bool]) -> Result<Self, CalibrateError> {
        let _span = nevermind_obs::span!("ml/platt_fit");
        if margins.len() != labels.len() {
            return Err(CalibrateError::LengthMismatch {
                margins: margins.len(),
                labels: labels.len(),
            });
        }
        if margins.is_empty() {
            return Err(CalibrateError::Empty);
        }
        if let Some(index) = margins.iter().position(|m| !m.is_finite()) {
            return Err(CalibrateError::NonFiniteMargin { index });
        }

        let (platt, evaluations) = newton(margins, labels);
        nevermind_obs::counter_add!("ml/platt_nll_evals", evaluations);
        Ok(platt)
    }

    /// Maps a raw margin to a calibrated probability.
    #[inline]
    pub fn probability(&self, margin: f64) -> f64 {
        sigmoid(self.a * margin + self.b)
    }

    /// Maps a batch of margins to probabilities.
    pub fn probabilities(&self, margins: &[f64]) -> Vec<f64> {
        margins.iter().map(|&m| self.probability(m)).collect()
    }

    /// Like [`Self::probability`], additionally emitting a `"calibrate"`
    /// decision-provenance event carrying the Platt coefficients and the
    /// margin→probability step, keyed by line and simulated day. The
    /// returned value is bit-identical to [`Self::probability`]; with
    /// tracing disabled the extra cost is one relaxed atomic load.
    pub fn probability_traced(&self, margin: f64, line: u32, day: u32) -> f64 {
        let p = self.probability(margin);
        if nevermind_obs::trace::enabled() {
            nevermind_obs::trace::global().emit(
                nevermind_obs::trace::TraceEvent::new("calibrate")
                    .line(line)
                    .day(day)
                    .attr("margin", margin)
                    .attr("a", self.a)
                    .attr("b", self.b)
                    .attr("probability", p),
            );
        }
        p
    }
}

/// The Newton iteration of [`PlattScale::fit`] on validated pairs, and how
/// many times it evaluated the negative log-likelihood.
fn newton(margins: &[f64], labels: &[bool]) -> (PlattScale, usize) {
    let n_pos = labels.iter().filter(|&&y| y).count() as f64;
    let n_neg = labels.len() as f64 - n_pos;
    // Prior-corrected targets (Platt 1999, Sec. 2.2).
    let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
    let t_neg = 1.0 / (n_neg + 2.0);
    let targets: Vec<f64> = labels.iter().map(|&y| if y { t_pos } else { t_neg }).collect();

    // Newton iterations on (a, b); start from the prior log-odds.
    // (In this crate's parametrization p = σ(a·m + b), so the neutral
    // starting point has σ(b) equal to the base rate.)
    let mut a = 0.0f64;
    let mut b = ((n_pos + 1.0) / (n_neg + 1.0)).ln();
    const MAX_ITER: usize = 100;
    const MIN_STEP: f64 = 1e-10;
    // Levenberg–Marquardt style damping.
    const SIGMA: f64 = 1e-12;
    // Sufficient-decrease fraction of the Armijo test (Lin, Lin & Weng).
    const ARMIJO: f64 = 1e-4;
    // Newton-decrement floor per row: see the stopping test below.
    const DECREMENT_PER_ROW: f64 = 1e-14;
    let n = margins.len() as f64;

    let nll = |a: f64, b: f64| -> f64 {
        margins
            .iter()
            .zip(&targets)
            .map(|(&m, &t)| {
                let z = a * m + b;
                // Stable cross-entropy: t*log(p) + (1-t)*log(1-p).
                let log_p = -softplus(-z);
                let log_1p = -softplus(z);
                -(t * log_p + (1.0 - t) * log_1p)
            })
            .sum()
    };

    let mut f_val = nll(a, b);
    let mut evaluations = 1;
    for _ in 0..MAX_ITER {
        // Gradient and Hessian of the NLL.
        let (mut g_a, mut g_b) = (0.0f64, 0.0f64);
        let (mut h_aa, mut h_ab, mut h_bb) = (SIGMA, 0.0f64, SIGMA);
        for (&m, &t) in margins.iter().zip(&targets) {
            let p = sigmoid(a * m + b);
            let d = p - t;
            g_a += d * m;
            g_b += d;
            let w = p * (1.0 - p);
            h_aa += w * m * m;
            h_ab += w * m;
            h_bb += w;
        }
        let det = h_aa * h_bb - h_ab * h_ab;
        let d_a = -(h_bb * g_a - h_ab * g_b) / det;
        let d_b = -(h_aa * g_b - h_ab * g_a) / det;

        // The Newton decrement λ² = -∇f·d: a full Newton step would
        // lower the NLL by about λ²/2. The NLL is a sum over the rows,
        // so the decrease its evaluation can still resolve grows with
        // their count; below that floor a line search only chases
        // rounding noise. Stop there (the Newton stopping rule, Boyd &
        // Vandenberghe 2004, Alg. 9.5).
        let decrement = -(g_a * d_a + g_b * d_b);
        if decrement <= DECREMENT_PER_ROW * n {
            break;
        }

        // Backtracking line search: the first halving of the Newton
        // step that passes the Armijo test of Lin, Lin & Weng (2007),
        // a decrease of at least `ARMIJO` of the one the gradient
        // predicts for the step.
        let mut step = 1.0f64;
        let mut improved = false;
        while step >= MIN_STEP {
            let (na, nb) = (a + step * d_a, b + step * d_b);
            let nf = nll(na, nb);
            evaluations += 1;
            if nf < f_val - ARMIJO * step * decrement {
                a = na;
                b = nb;
                f_val = nf;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
    }

    (PlattScale { a, b }, evaluations)
}

/// One bin of a reliability (calibration) curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityBin {
    /// Mean predicted probability of the examples in the bin.
    pub mean_predicted: f64,
    /// Empirical positive rate of the examples in the bin.
    pub empirical_rate: f64,
    /// Number of examples in the bin.
    pub count: usize,
}

/// Reliability curve: predictions bucketed into `n_bins` equal-width
/// probability bins, comparing the mean prediction against the realized
/// positive rate. A well-calibrated model tracks the diagonal.
///
/// Empty bins are omitted.
pub fn reliability_curve(
    probabilities: &[f64],
    labels: &[bool],
    n_bins: usize,
) -> Vec<ReliabilityBin> {
    assert_eq!(probabilities.len(), labels.len(), "probability/label mismatch");
    assert!(n_bins >= 2, "need at least two bins");
    let mut sums = vec![0.0f64; n_bins];
    let mut hits = vec![0usize; n_bins];
    let mut counts = vec![0usize; n_bins];
    for (&p, &y) in probabilities.iter().zip(labels) {
        if p.is_nan() {
            continue;
        }
        let b = ((p * n_bins as f64).floor() as usize).min(n_bins - 1);
        sums[b] += p;
        counts[b] += 1;
        if y {
            hits[b] += 1;
        }
    }
    (0..n_bins)
        .filter(|&b| counts[b] > 0)
        .map(|b| ReliabilityBin {
            mean_predicted: sums[b] / counts[b] as f64,
            empirical_rate: hits[b] as f64 / counts[b] as f64,
            count: counts[b],
        })
        .collect()
}

/// Expected calibration error: the count-weighted mean absolute gap between
/// predicted probability and realized positive rate across the equal-width
/// bins of [`reliability_curve`].
///
/// `0` means perfectly calibrated; a model that says 0.9 when the truth is
/// 0.5 scores 0.4. NaN predictions are skipped (as in the curve itself);
/// returns 0 when nothing remains.
pub fn expected_calibration_error(probabilities: &[f64], labels: &[bool], n_bins: usize) -> f64 {
    let bins = reliability_curve(probabilities, labels, n_bins);
    let total: usize = bins.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    bins.iter()
        .map(|b| (b.count as f64 / total as f64) * (b.mean_predicted - b.empirical_rate).abs())
        .sum()
}

/// Brier score: mean squared error of the predicted probabilities against
/// the 0/1 outcomes. Lower is better; a clairvoyant model scores 0 and an
/// always-0.5 model scores 0.25. NaN predictions are skipped; returns 0
/// when nothing remains.
pub fn brier_score(probabilities: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "probability/label mismatch");
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for (&p, &y) in probabilities.iter().zip(labels) {
        if p.is_nan() {
            continue;
        }
        let d = p - if y { 1.0 } else { 0.0 };
        sum += d * d;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `log(1 + exp(x))` computed without overflow.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Margins drawn so that `P(y=1|m) = σ(2m - 1)`; Platt should recover
    /// roughly (a, b) ≈ (2, -1).
    fn synthetic(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut margins = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let m: f64 = rng.random_range(-3.0..3.0);
            let p = sigmoid(2.0 * m - 1.0);
            margins.push(m);
            labels.push(rng.random_bool(p));
        }
        (margins, labels)
    }

    #[test]
    fn recovers_generating_sigmoid() {
        let (m, y) = synthetic(20_000, 1);
        let platt = PlattScale::fit(&m, &y).expect("valid synthetic data");
        assert!((platt.a - 2.0).abs() < 0.15, "a = {}", platt.a);
        assert!((platt.b + 1.0).abs() < 0.15, "b = {}", platt.b);
    }

    #[test]
    fn probabilities_monotone_in_margin() {
        let (m, y) = synthetic(5000, 2);
        let platt = PlattScale::fit(&m, &y).expect("valid synthetic data");
        assert!(platt.a > 0.0, "positive slope expected");
        let lo = platt.probability(-1.0);
        let hi = platt.probability(1.0);
        assert!(hi > lo);
    }

    #[test]
    fn calibrated_probabilities_are_in_range() {
        let (m, y) = synthetic(1000, 3);
        let platt = PlattScale::fit(&m, &y).expect("valid synthetic data");
        for &margin in &m {
            let p = platt.probability(margin);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// `n` margins with 1% positives, like the ticket-prediction base rate.
    fn imbalanced(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut margins = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.random_bool(0.01);
            let m: f64 = if y { rng.random_range(0.0..2.0) } else { rng.random_range(-2.0..0.5) };
            margins.push(m);
            labels.push(y);
        }
        (margins, labels)
    }

    #[test]
    fn handles_imbalanced_data() {
        let (margins, labels) = imbalanced(10_000, 4);
        let platt = PlattScale::fit(&margins, &labels).expect("valid synthetic data");
        // Average predicted probability should be near the base rate.
        let avg: f64 =
            margins.iter().map(|&m| platt.probability(m)).sum::<f64>() / margins.len() as f64;
        assert!((avg - 0.01).abs() < 0.01, "avg calibrated prob {avg}");
    }

    /// The NLL and its gradient are sums over the rows, so a fixed
    /// decrease or gradient threshold outgrows their rounding as the rows
    /// grow: at 400k imbalanced rows a fixed `1e-12` decrease test and a
    /// fixed `1e-9` gradient bound spent 59 NLL evaluations, most of them
    /// halving steps that rounding noise kept from passing.
    /// The decrement test scaled to the row count stops after a few Newton
    /// steps at every size, at a point where the NLL's gradient per row
    /// is nil to its rounding.
    #[test]
    fn converges_in_a_few_newton_steps_at_any_row_count() {
        for n in [1_000, 20_000, 400_000] {
            let (margins, labels) = imbalanced(n, 6);
            let (platt, evaluations) = newton(&margins, &labels);
            assert!(evaluations <= 15, "{n} rows: {evaluations} NLL evaluations");
            let (mut g_a, mut g_b) = (0.0f64, 0.0f64);
            let n_pos = labels.iter().filter(|&&y| y).count() as f64;
            let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
            let t_neg = 1.0 / (n as f64 - n_pos + 2.0);
            for (&m, &y) in margins.iter().zip(&labels) {
                let d = platt.probability(m) - if y { t_pos } else { t_neg };
                g_a += d * m;
                g_b += d;
            }
            let per_row = g_a.abs().max(g_b.abs()) / n as f64;
            assert!(per_row < 1e-9, "{n} rows: gradient {per_row:e} per row");
        }
    }

    #[test]
    fn handles_degenerate_single_class() {
        // All negatives: the fit must not diverge and must emit low probs.
        let margins = vec![-1.0, 0.0, 1.0, 2.0];
        let labels = vec![false; 4];
        let platt = PlattScale::fit(&margins, &labels).expect("valid synthetic data");
        for &m in &margins {
            assert!(platt.probability(m) < 0.5);
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let (m, y) = synthetic(200, 5);
        let platt = PlattScale::fit(&m, &y).expect("valid synthetic data");
        let batch = platt.probabilities(&m);
        for (i, &margin) in m.iter().enumerate() {
            assert_eq!(batch[i], platt.probability(margin));
        }
    }

    #[test]
    fn reliability_curve_tracks_a_calibrated_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..20_000 {
            let p: f64 = rng.random();
            probs.push(p);
            labels.push(rng.random_bool(p));
        }
        let bins = reliability_curve(&probs, &labels, 10);
        assert!(bins.len() == 10);
        for b in &bins {
            assert!(
                (b.mean_predicted - b.empirical_rate).abs() < 0.05,
                "bin off the diagonal: {b:?}"
            );
        }
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn reliability_curve_flags_overconfidence() {
        // A model that says 0.9 when the truth is 0.5 lands far off-diagonal.
        let probs = vec![0.9; 1000];
        let labels: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let bins = reliability_curve(&probs, &labels, 10);
        assert_eq!(bins.len(), 1);
        assert!((bins[0].mean_predicted - 0.9).abs() < 1e-9);
        assert!((bins[0].empirical_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_input() {
        assert_eq!(PlattScale::fit(&[], &[]), Err(CalibrateError::Empty));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert_eq!(
            PlattScale::fit(&[0.5], &[true, false]),
            Err(CalibrateError::LengthMismatch { margins: 1, labels: 2 })
        );
    }

    #[test]
    fn rejects_non_finite_margins() {
        // A corrupted measurement propagating a NaN margin must surface as
        // a recoverable error, not a diverged or silently wrong fit.
        assert_eq!(
            PlattScale::fit(&[0.2, f64::NAN, 0.4], &[true, false, true]),
            Err(CalibrateError::NonFiniteMargin { index: 1 })
        );
        assert_eq!(
            PlattScale::fit(&[f64::INFINITY], &[true]),
            Err(CalibrateError::NonFiniteMargin { index: 0 })
        );
    }

    #[test]
    fn ece_near_zero_for_calibrated_and_large_for_overconfident() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..20_000 {
            let p: f64 = rng.random();
            probs.push(p);
            labels.push(rng.random_bool(p));
        }
        let ece = expected_calibration_error(&probs, &labels, 10);
        assert!(ece < 0.02, "calibrated model: ece = {ece}");

        let over = vec![0.9; 1000];
        let half: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let ece = expected_calibration_error(&over, &half, 10);
        assert!((ece - 0.4).abs() < 1e-9, "overconfident model: ece = {ece}");
    }

    #[test]
    fn ece_skips_nans_and_handles_empty() {
        assert_eq!(expected_calibration_error(&[], &[], 10), 0.0);
        assert_eq!(expected_calibration_error(&[f64::NAN], &[true], 10), 0.0);
        let ece = expected_calibration_error(&[0.5, f64::NAN], &[true, false], 10);
        assert!((ece - 0.5).abs() < 1e-9);
    }

    #[test]
    fn brier_score_known_values() {
        assert_eq!(brier_score(&[], &[]), 0.0);
        assert_eq!(brier_score(&[1.0, 0.0], &[true, false]), 0.0, "clairvoyant");
        assert_eq!(brier_score(&[0.5, 0.5], &[true, false]), 0.25, "coin-flip");
        let with_nan = brier_score(&[f64::NAN, 0.2], &[true, false]);
        assert!((with_nan - 0.04).abs() < 1e-12);
    }
}
