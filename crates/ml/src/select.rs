//! Feature selection — the Sec. 4.3 framework plus the Table-4 baselines.
//!
//! The paper's method scores every candidate feature by training a *single-
//! feature* predictor on a training window, evaluating it on a separate test
//! window, and ranking features by the resulting metric. The novel criterion
//! is the top-N average precision `AP(N)` with `N` equal to the operational
//! budget; the baselines (Table 4) are ROC AUC, classic average precision,
//! PCA loadings and gain ratio.
//!
//! Model-based criteria spread the features over [`nevermind_obs::par`]
//! parts on every core; results are deterministic because each feature's
//! score depends only on its own column.

use crate::boost::{BStump, BoostConfig};
use crate::data::Dataset;
use crate::entropy::gain_ratio;
use crate::metrics::{auc, average_precision, expected_top_n_average_precision};
use crate::pca::Pca;
use crate::stump::BinnedDataset;

/// A feature-selection criterion (Table 4 plus the paper's top-N AP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionCriterion {
    /// The paper's top-N average precision of a single-feature model
    /// (Sec. 4.3). `n` is the operational budget.
    TopNAp {
        /// Budget `N` used inside `AP(N)`.
        n: usize,
    },
    /// Area under the ROC curve of a single-feature model.
    Auc,
    /// Classic average precision of a single-feature model.
    AveragePrecision,
    /// Eigenvalue-weighted loading magnitude over the top principal
    /// components (no model; computed on the training matrix).
    Pca {
        /// Number of retained components.
        components: usize,
    },
    /// Gain ratio after quantile binning (no model; training matrix only).
    GainRatio {
        /// Number of quantile bins.
        bins: usize,
    },
}

/// A scored feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScore {
    /// Column index in the source matrix.
    pub feature: usize,
    /// Criterion value (higher is better).
    pub score: f64,
}

/// Configuration for the model-based criteria.
#[derive(Debug, Clone)]
pub struct SelectConfig {
    /// Boosting iterations for each single-feature model. A handful is
    /// enough: one column admits only a piecewise-constant score with at
    /// most `2^T`-ish plateaus.
    pub model_iterations: usize,
    /// Bin count for the stump threshold search.
    pub n_bins: usize,
}

impl Default for SelectConfig {
    fn default() -> Self {
        Self { model_iterations: 8, n_bins: 64 }
    }
}

/// Scores every feature of `train` under the criterion; model-based criteria
/// evaluate on `eval` (the paper uses a separate test window so selection
/// rewards features that *generalize* to the top of the ranking).
///
/// Returns one [`FeatureScore`] per column, in column order. Features whose
/// score is undefined (e.g. constant columns under AUC) get `0.0`.
pub fn score_features(
    train: &Dataset,
    eval: &Dataset,
    criterion: SelectionCriterion,
    config: &SelectConfig,
) -> Vec<FeatureScore> {
    assert_eq!(train.x.n_cols(), eval.x.n_cols(), "train and eval must share the feature space");
    let _span = nevermind_obs::span!("ml/score_features");
    nevermind_obs::counter_add!("ml/features_scored", train.x.n_cols());
    match criterion {
        SelectionCriterion::Pca { components } => {
            let pca = Pca::fit(&train.x, components);
            pca.feature_scores(train.x.n_cols())
                .into_iter()
                .enumerate()
                .map(|(feature, score)| FeatureScore { feature, score })
                .collect()
        }
        SelectionCriterion::GainRatio { bins } => (0..train.x.n_cols())
            .map(|feature| {
                let col = train.x.column_f64(feature);
                FeatureScore { feature, score: gain_ratio(&col, &train.y, bins) }
            })
            .collect(),
        SelectionCriterion::TopNAp { .. }
        | SelectionCriterion::Auc
        | SelectionCriterion::AveragePrecision => {
            score_model_based(train, eval, criterion, config, 0)
        }
    }
}

/// Indices of the `k` best features under the criterion (descending score,
/// ties broken by column order).
pub fn select_top_k(
    train: &Dataset,
    eval: &Dataset,
    criterion: SelectionCriterion,
    k: usize,
    config: &SelectConfig,
) -> Vec<usize> {
    let mut scores = score_features(train, eval, criterion, config);
    scores.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.feature.cmp(&b.feature)));
    scores.into_iter().take(k).map(|s| s.feature).collect()
}

/// Indices of all features whose score strictly exceeds `threshold` —
/// the Fig. 4 selection rule (0.2 for history/customer and quadratic
/// features, 0.3 for product features).
pub fn select_above_threshold(scores: &[FeatureScore], threshold: f64) -> Vec<usize> {
    scores.iter().filter(|s| s.score > threshold).map(|s| s.feature).collect()
}

/// Model-based scores over `threads` [`nevermind_obs::par`] parts (`0` =
/// every core; fewer than 4 features always score on the caller).
fn score_model_based(
    train: &Dataset,
    eval: &Dataset,
    criterion: SelectionCriterion,
    config: &SelectConfig,
    threads: usize,
) -> Vec<FeatureScore> {
    let n_features = train.x.n_cols();
    let binned = BinnedDataset::from_matrix(&train.x, config.n_bins);
    let w0 = vec![1.0 / train.len().max(1) as f64; train.len()];
    let boost_cfg = BoostConfig {
        iterations: config.model_iterations,
        n_bins: config.n_bins,
        smoothing: None,
        parallel: false, // parallelism is across features here
    };

    let score_one = |feature: usize| -> f64 {
        let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[feature]);
        if model.stumps().is_empty() {
            return 0.0;
        }
        let margins = model.margins(&eval.x);
        let s = match criterion {
            SelectionCriterion::TopNAp { n } => {
                // Tie-averaged: single-feature models emit few distinct
                // scores, and the exact AP@N would measure tie-order noise.
                expected_top_n_average_precision(&margins, &eval.y, n)
            }
            SelectionCriterion::Auc => auc(&margins, &eval.y),
            SelectionCriterion::AveragePrecision => average_precision(&margins, &eval.y),
            _ => unreachable!("non-model criterion routed here"),
        };
        if s.is_nan() {
            0.0
        } else {
            s
        }
    };

    let threads = if n_features < 4 { 1 } else { threads };
    let scores = nevermind_obs::par::map(n_features, threads, |r| {
        r.map(|feature| FeatureScore { feature, score: score_one(feature) }).collect::<Vec<_>>()
    });
    scores.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{FeatureMatrix, FeatureMeta};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Column 0 is highly predictive, column 1 weakly, column 2 is noise.
    fn graded_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let meta = vec![
            FeatureMeta::continuous("strong"),
            FeatureMeta::continuous("weak"),
            FeatureMeta::continuous("noise"),
        ];
        let mut values = Vec::with_capacity(n * 3);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.random_bool(0.3);
            let strong: f32 =
                if y { rng.random_range(0.5..1.0) } else { rng.random_range(0.0..0.6) };
            let weak: f32 = if y { rng.random_range(0.3..1.0) } else { rng.random_range(0.0..0.9) };
            values.extend_from_slice(&[strong, weak, rng.random()]);
            labels.push(y);
        }
        Dataset::new(FeatureMatrix::new(n, meta, values), labels)
    }

    fn cfg() -> SelectConfig {
        SelectConfig::default()
    }

    #[test]
    fn top_n_ap_ranks_strong_first() {
        let train = graded_dataset(3000, 1);
        let eval = graded_dataset(1500, 2);
        let order = select_top_k(&train, &eval, SelectionCriterion::TopNAp { n: 150 }, 3, &cfg());
        assert_eq!(order[0], 0, "strong feature must rank first: {order:?}");
        assert_eq!(*order.last().expect("three features"), 2, "noise last: {order:?}");
    }

    #[test]
    fn auc_ranks_strong_first() {
        let train = graded_dataset(3000, 3);
        let eval = graded_dataset(1500, 4);
        let order = select_top_k(&train, &eval, SelectionCriterion::Auc, 3, &cfg());
        assert_eq!(order[0], 0);
    }

    #[test]
    fn average_precision_ranks_strong_first() {
        let train = graded_dataset(3000, 5);
        let eval = graded_dataset(1500, 6);
        let order = select_top_k(&train, &eval, SelectionCriterion::AveragePrecision, 3, &cfg());
        assert_eq!(order[0], 0);
    }

    #[test]
    fn gain_ratio_ranks_strong_over_noise() {
        let train = graded_dataset(3000, 7);
        let eval = graded_dataset(10, 8); // unused by gain ratio
        let scores =
            score_features(&train, &eval, SelectionCriterion::GainRatio { bins: 16 }, &cfg());
        assert!(scores[0].score > scores[2].score);
    }

    #[test]
    fn pca_scores_cover_all_features() {
        let train = graded_dataset(1000, 9);
        let eval = graded_dataset(10, 10);
        let scores =
            score_features(&train, &eval, SelectionCriterion::Pca { components: 2 }, &cfg());
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.score.is_finite()));
    }

    #[test]
    fn parallel_scores_match_serial() {
        // Five columns (the graded three plus two repeats) clear the
        // four-feature floor below which scoring stays on the caller.
        let train = graded_dataset(1200, 11).select_columns(&[0, 1, 2, 0, 1]);
        let eval = graded_dataset(600, 12).select_columns(&[0, 1, 2, 0, 1]);
        let criterion = SelectionCriterion::TopNAp { n: 60 };
        let serial = score_model_based(&train, &eval, criterion, &cfg(), 1);
        for threads in [0, 2, 4] {
            let parallel = score_model_based(&train, &eval, criterion, &cfg(), threads);
            assert_eq!(serial, parallel, "{threads} parts");
        }
        assert_eq!(serial, score_features(&train, &eval, criterion, &cfg()));
    }

    #[test]
    fn threshold_selection_filters() {
        let scores = vec![
            FeatureScore { feature: 0, score: 0.35 },
            FeatureScore { feature: 1, score: 0.2 },
            FeatureScore { feature: 2, score: 0.05 },
        ];
        assert_eq!(select_above_threshold(&scores, 0.2), vec![0]);
        assert_eq!(select_above_threshold(&scores, 0.01), vec![0, 1, 2]);
    }

    #[test]
    fn constant_feature_scores_zero() {
        let meta = vec![FeatureMeta::continuous("const")];
        let n = 100;
        let x = FeatureMatrix::new(n, meta, vec![1.0; n]);
        let y: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let data = Dataset::new(x, y);
        let scores = score_features(&data, &data.clone(), SelectionCriterion::Auc, &cfg());
        assert_eq!(scores[0].score, 0.0);
    }
}
