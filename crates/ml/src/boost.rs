//! **BStump**: confidence-rated AdaBoost over decision stumps.
//!
//! This is the paper's classifier (Sec. 4.4, Fig. 5): at each of `T`
//! iterations the algorithm picks the single feature/threshold stump that
//! minimizes the Schapire–Singer `Z` objective under the current example
//! weights, adds its real-valued scores to the ensemble, and reweights the
//! examples by `exp(-y·g_t(x))`. The final model is linear in the stump
//! outputs — the property the paper relies on for robustness to the heavy
//! label noise in ticket data (unreported problems are mislabelled
//! negatives).
//!
//! The per-iteration stump search fans the candidate features out over
//! [`nevermind_obs::par`] parts; the model is bit-identical for any part
//! count because the per-part winners reduce under the total order
//! `(Z, feature index)`.

use crate::data::{Dataset, FeatureMatrix};
use crate::stump::{best_stump_for_feature, BinnedDataset, Stump, StumpSearchResult, MISSING_BIN};
use serde::{Deserialize, Serialize};

/// Training configuration for [`BStump`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Number of boosting iterations `T` (the paper uses 800 for the ticket
    /// predictor and 200 for the trouble locator, both via cross-validation).
    pub iterations: usize,
    /// Maximum number of quantile bins per feature for the threshold search.
    pub n_bins: usize,
    /// Score-smoothing ε; `None` uses the Schapire–Singer default `1/(2n)`.
    pub smoothing: Option<f64>,
    /// Whether the per-iteration stump search spreads the features over
    /// every core (it does so only from 8 candidate features up).
    pub parallel: bool,
}

impl Default for BoostConfig {
    fn default() -> Self {
        Self { iterations: 200, n_bins: 64, smoothing: None, parallel: true }
    }
}

impl BoostConfig {
    /// Config with a given iteration count and defaults elsewhere.
    pub fn with_iterations(iterations: usize) -> Self {
        Self { iterations, ..Self::default() }
    }
}

/// A trained boosted-stump ensemble.
///
/// The model's raw output is the *margin* `f(x) = Σ_t g_t(x)`; positive
/// margins vote for the positive class (a future ticket). Use
/// [`crate::calibrate::PlattScale`] to map margins to probabilities.
///
/// ```
/// use nevermind_ml::boost::{BStump, BoostConfig};
/// use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};
///
/// // A one-feature problem: positives live above 2.5.
/// let x = FeatureMatrix::new(
///     4,
///     vec![FeatureMeta::continuous("f")],
///     vec![1.0, 2.0, 3.0, 4.0],
/// );
/// let data = Dataset::new(x, vec![false, false, true, true]);
/// let model = BStump::fit(&data, &BoostConfig::with_iterations(5));
/// assert!(model.margin(&[4.0]) > 0.0);
/// assert!(model.margin(&[1.0]) < 0.0);
/// assert_eq!(model.margin(&[f32::NAN]), 0.0); // abstains on missing
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BStump {
    stumps: Vec<Stump>,
    n_features: usize,
}

impl BStump {
    /// Trains on a dataset with uniform initial weights.
    pub fn fit(data: &Dataset, config: &BoostConfig) -> Self {
        let n = data.len();
        let w0 = vec![1.0 / n.max(1) as f64; n];
        Self::fit_weighted(&data.x, &data.y, &w0, config)
    }

    /// Trains with caller-supplied initial weights (they are normalized
    /// internally).
    ///
    /// # Panics
    /// Panics if the label or weight slices do not match the matrix rows, or
    /// if the dataset is empty.
    pub fn fit_weighted(
        x: &FeatureMatrix,
        y: &[bool],
        initial_weights: &[f64],
        config: &BoostConfig,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "label/row mismatch");
        assert_eq!(x.n_rows(), initial_weights.len(), "weight/row mismatch");
        assert!(x.n_rows() > 0, "cannot train on an empty dataset");

        let binned = BinnedDataset::from_matrix(x, config.n_bins);
        let candidates: Vec<usize> = (0..x.n_cols()).collect();
        Self::fit_binned(&binned, y, initial_weights, config, &candidates)
    }

    /// Trains from an already-binned dataset, restricted to the given
    /// candidate feature columns (lets callers amortize binning across many
    /// models — e.g. the per-feature selection models train one single-column
    /// model per candidate from one shared binning).
    pub fn fit_binned(
        binned: &BinnedDataset,
        y: &[bool],
        initial_weights: &[f64],
        config: &BoostConfig,
        candidate_features: &[usize],
    ) -> Self {
        let _span = nevermind_obs::span!("ml/bstump_fit");
        nevermind_obs::counter_add!("ml/boost_rounds", config.iterations);
        let n = binned.n_rows();
        let n_features = binned.n_features();
        let smoothing = config.smoothing.unwrap_or(1.0 / (2.0 * n as f64));
        let mut weights: Vec<f64> = initial_weights.to_vec();
        normalize(&mut weights);

        let threads = if config.parallel && candidate_features.len() >= 8 { 0 } else { 1 };
        let mut stumps = Vec::with_capacity(config.iterations);

        for _t in 0..config.iterations {
            let per_part = nevermind_obs::par::map(candidate_features.len(), threads, |r| {
                candidate_features[r]
                    .iter()
                    .filter_map(|&f| {
                        best_stump_for_feature(f, binned.feature(f), y, &weights, smoothing)
                    })
                    .fold(None, best_of)
            });
            let Some(res) = per_part.into_iter().flatten().fold(None, best_of) else { break };
            // Z >= 1 means the stump no longer reduces training loss; any
            // further rounds would just oscillate.
            if res.z >= 1.0 - 1e-12 {
                break;
            }

            apply_weight_update(binned, &res.stump, y, &mut weights);
            stumps.push(res.stump);
        }

        Self { stumps, n_features }
    }

    /// Raw margin `Σ_t g_t(x)` for one feature row.
    pub fn margin(&self, row: &[f32]) -> f64 {
        self.stumps.iter().map(|s| s.score(row)).sum()
    }

    /// Margins for every row of a matrix.
    ///
    /// # Panics
    /// Panics if the matrix has fewer columns than the training data.
    pub fn margins(&self, x: &FeatureMatrix) -> Vec<f64> {
        assert!(
            x.n_cols() >= self.n_features,
            "matrix has {} columns, model expects {}",
            x.n_cols(),
            self.n_features
        );
        (0..x.n_rows()).map(|r| self.margin(x.row(r))).collect()
    }

    /// Margins of every row after each of the requested iteration
    /// checkpoints (ascending). Returned as one margin vector per
    /// checkpoint; checkpoints beyond the trained length are clamped.
    ///
    /// This is what cross-validated iteration-count selection uses: train
    /// once with the maximum `T`, then evaluate every candidate `T` from the
    /// staged margins instead of retraining.
    pub fn staged_margins(&self, x: &FeatureMatrix, checkpoints: &[usize]) -> Vec<Vec<f64>> {
        let mut acc = vec![0.0f64; x.n_rows()];
        let mut out = Vec::with_capacity(checkpoints.len());
        let mut next_stump = 0usize;
        for &cp in checkpoints {
            let cp = cp.min(self.stumps.len());
            while next_stump < cp {
                let s = &self.stumps[next_stump];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += s.score(x.row(r));
                }
                next_stump += 1;
            }
            out.push(acc.clone());
        }
        out
    }

    /// The trained weak learners, in boosting order.
    pub fn stumps(&self) -> &[Stump] {
        &self.stumps
    }

    /// Number of feature columns the model was trained against.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// How many stumps reference each feature — a crude importance measure
    /// used when rendering the Fig-9 model structure.
    pub fn feature_usage(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_features];
        for s in &self.stumps {
            counts[s.feature] += 1;
        }
        counts
    }
}

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    for w in weights.iter_mut() {
        *w /= total;
    }
}

/// Folds a candidate into the running best under the total order
/// `(Z, feature index)`: ties break on the lowest feature index, so the
/// winner does not depend on how the features were partitioned.
fn best_of(
    incumbent: Option<StumpSearchResult>,
    candidate: StumpSearchResult,
) -> Option<StumpSearchResult> {
    match incumbent {
        Some(inc) if !better(&candidate, &inc) => Some(inc),
        _ => Some(candidate),
    }
}

/// Whether `candidate` beats `incumbent` under `(Z, feature index)` order.
fn better(candidate: &StumpSearchResult, incumbent: &StumpSearchResult) -> bool {
    candidate.z < incumbent.z
        || (candidate.z == incumbent.z && candidate.stump.feature < incumbent.stump.feature)
}

/// Applies the AdaBoost weight update `w_i ← w_i·exp(-y_i·g(x_i))` using the
/// binned representation (threshold comparisons reduce to bin comparisons).
fn apply_weight_update(binned: &BinnedDataset, stump: &Stump, y: &[bool], weights: &mut [f64]) {
    let feature = binned.feature(stump.feature);
    // The stump threshold is always one of the bin edges; rows in bins up to
    // and including that edge go left.
    let split_bin = feature.edges.partition_point(|&e| e < stump.threshold) as u16;
    for ((&bin, &label), w) in feature.bin_of_row.iter().zip(y).zip(weights.iter_mut()) {
        let g = if bin == MISSING_BIN {
            0.0
        } else if bin <= split_bin {
            stump.s_le
        } else {
            stump.s_gt
        };
        let signed = if label { g } else { -g };
        *w *= (-signed).exp();
    }
    normalize(weights);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMeta;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Synthetic problem: positives live in the corner x0 > 0.5 AND x1 > 0.5,
    /// with optional label noise. Two noise features are included.
    fn corner_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let meta = vec![
            FeatureMeta::continuous("x0"),
            FeatureMeta::continuous("x1"),
            FeatureMeta::continuous("n0"),
            FeatureMeta::continuous("n1"),
        ];
        let mut values = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f32 = rng.random();
            let x1: f32 = rng.random();
            values.extend_from_slice(&[x0, x1, rng.random(), rng.random()]);
            let mut y = x0 > 0.5 && x1 > 0.5;
            if rng.random_bool(noise) {
                y = !y;
            }
            labels.push(y);
        }
        Dataset::new(FeatureMatrix::new(n, meta, values), labels)
    }

    fn accuracy(model: &BStump, data: &Dataset) -> f64 {
        let margins = model.margins(&data.x);
        let correct = margins.iter().zip(&data.y).filter(|(&m, &y)| (m > 0.0) == y).count();
        correct as f64 / data.len() as f64
    }

    #[test]
    fn learns_conjunction() {
        let train = corner_dataset(2000, 0.0, 1);
        let test = corner_dataset(1000, 0.0, 2);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(60));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.95, "test accuracy {acc}");
    }

    #[test]
    fn tolerates_label_noise() {
        let train = corner_dataset(3000, 0.15, 3);
        let test = corner_dataset(1000, 0.0, 4); // evaluate on clean labels
        let model = BStump::fit(&train, &BoostConfig::with_iterations(60));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.85, "noisy-label test accuracy {acc}");
    }

    #[test]
    fn margin_is_sum_of_stump_scores() {
        let train = corner_dataset(500, 0.0, 5);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(10));
        let row = train.x.row(0);
        let manual: f64 = model.stumps().iter().map(|s| s.score(row)).sum();
        assert!((model.margin(row) - manual).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial() {
        let train = corner_dataset(800, 0.05, 6);
        let mut cfg = BoostConfig::with_iterations(25);
        cfg.parallel = false;
        let serial = BStump::fit(&train, &cfg);
        cfg.parallel = true;
        let parallel = BStump::fit(&train, &cfg);
        assert_eq!(serial.stumps(), parallel.stumps());

        // Ten columns clear the eight-feature floor, so the search really
        // fans out; repeated columns force exact `Z` ties across parts.
        let wide = train.select_columns(&[0, 1, 2, 3, 0, 1, 2, 3, 1, 0]);
        cfg.parallel = false;
        let serial = BStump::fit(&wide, &cfg);
        cfg.parallel = true;
        let parallel = BStump::fit(&wide, &cfg);
        assert_eq!(serial.stumps(), parallel.stumps());
    }

    #[test]
    fn deterministic_across_runs() {
        let train = corner_dataset(800, 0.05, 7);
        let cfg = BoostConfig::with_iterations(25);
        let a = BStump::fit(&train, &cfg);
        let b = BStump::fit(&train, &cfg);
        assert_eq!(a.stumps(), b.stumps());
    }

    #[test]
    fn handles_missing_values() {
        // Half the signal column is missing; the model should still learn.
        let mut train = corner_dataset(2000, 0.0, 8);
        for r in (0..train.len()).step_by(2) {
            train.x.set(r, 0, f32::NAN);
        }
        let test = corner_dataset(1000, 0.0, 9);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(80));
        let acc = accuracy(&model, &test);
        assert!(acc > 0.85, "accuracy with missing data {acc}");
    }

    #[test]
    fn stops_early_when_no_progress() {
        // A binary feature with perfectly balanced labels on each side has
        // Z = 1 exactly: no stump can reduce the loss, so training stops
        // immediately instead of burning through the iteration budget.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(4, meta, vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![true, false, true, false];
        let cfg = BoostConfig { iterations: 5000, parallel: false, ..BoostConfig::default() };
        let model = BStump::fit_weighted(&x, &y, &[0.25; 4], &cfg);
        assert!(model.stumps().is_empty(), "trained {} stumps", model.stumps().len());
    }

    #[test]
    fn weighted_fit_respects_weights() {
        // Two contradictory points; the heavier one dictates the sign.
        let meta = vec![FeatureMeta::continuous("f")];
        let x = FeatureMatrix::new(2, meta, vec![1.0, 2.0]);
        let y = vec![true, false];
        let cfg = BoostConfig { iterations: 5, n_bins: 4, smoothing: Some(1e-3), parallel: false };
        let model = BStump::fit_weighted(&x, &y, &[0.9, 0.1], &cfg);
        assert!(model.margin(&[1.0]) > 0.0);
        let model2 = BStump::fit_weighted(&x, &y, &[0.1, 0.9], &cfg);
        assert!(model2.margin(&[2.0]) < 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let train = corner_dataset(300, 0.0, 12);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(10));
        let json = serde_json::to_string(&model).expect("serialize");
        let back: BStump = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(model.stumps(), back.stumps());
        assert_eq!(model.n_features(), back.n_features());
    }

    #[test]
    fn feature_usage_counts() {
        let train = corner_dataset(1000, 0.0, 13);
        let model = BStump::fit(&train, &BoostConfig::with_iterations(30));
        let usage = model.feature_usage();
        assert_eq!(usage.len(), 4);
        assert_eq!(usage.iter().sum::<usize>(), model.stumps().len());
        // The two signal features should dominate usage.
        assert!(usage[0] + usage[1] > usage[2] + usage[3]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let x = FeatureMatrix::new(0, vec![FeatureMeta::continuous("f")], vec![]);
        let _ = BStump::fit_weighted(&x, &[], &[], &BoostConfig::default());
    }
}
