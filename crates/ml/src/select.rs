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
//!
//! `AP(N)` ranks no eval row. A single-feature model gives every value in
//! one train bin the same margin, so selection counts each eval column's
//! rows and positives per train bin once, and scores a candidate from its
//! at most `k + 1` bin margins through the tie-group walk
//! [`crate::metrics::expected_top_n_average_precision`] runs over its
//! argsort — the same score to the bit, in O(bins) per candidate. The
//! Table-4 baselines `Auc` and `AveragePrecision` keep per-row margins.

use crate::boost::{BStump, BoostConfig};
use crate::data::Dataset;
use crate::entropy::gain_ratio;
use crate::metrics::{auc, average_precision, expected_top_n_ap_of_tie_groups, same_score};
use crate::pca::Pca;
use crate::rank::cmp_desc;
use crate::stump::BinnedDataset;
use std::ops::Range;

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
    let threads = if n_features < 4 { 1 } else { threads };
    let scores = nevermind_obs::par::map(n_features, threads, |features| {
        // AP(N) reads the eval rows only through their per-bin counts.
        let counts = match criterion {
            SelectionCriterion::TopNAp { .. } => eval_bin_counts(&binned, eval, features.clone()),
            _ => Vec::new(),
        };
        features
            .enumerate()
            .map(|(i, feature)| {
                let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[feature]);
                let score = if model.stumps().is_empty() {
                    0.0
                } else {
                    match criterion {
                        // Tie-averaged: single-feature models emit few
                        // distinct scores, and the exact AP@N would measure
                        // tie-order noise.
                        SelectionCriterion::TopNAp { n } => {
                            let edges = &binned.feature(feature).edges;
                            grouped_top_n_ap(&model, edges, &counts[i], eval.len(), n)
                        }
                        SelectionCriterion::Auc => auc(&model.margins(&eval.x), &eval.y),
                        SelectionCriterion::AveragePrecision => {
                            average_precision(&model.margins(&eval.x), &eval.y)
                        }
                        _ => unreachable!("non-model criterion routed here"),
                    }
                };
                FeatureScore { feature, score: if score.is_nan() { 0.0 } else { score } }
            })
            .collect::<Vec<_>>()
    });
    scores.concat()
}

/// Rows and positives of `eval` per bin of the train binning, for each
/// feature in `features`: entry `b` of a `k`-bin feature counts the rows
/// whose value falls in bin `b` (by the binning's own rule: the number of
/// edges below the value, clamped to the last bin), entry `k` the rows
/// missing it. One pass over the rows reads each row's slice of
/// `features` contiguously.
fn eval_bin_counts(
    binned: &BinnedDataset,
    eval: &Dataset,
    features: Range<usize>,
) -> Vec<Vec<(usize, usize)>> {
    let edges: Vec<&[f32]> = features.clone().map(|f| binned.feature(f).edges.as_slice()).collect();
    let mut counts: Vec<Vec<(usize, usize)>> =
        edges.iter().map(|e| vec![(0, 0); e.len() + 1]).collect();
    for (r, &label) in eval.y.iter().enumerate() {
        let values = &eval.x.row(r)[features.clone()];
        for ((&v, edges), counts) in values.iter().zip(&edges).zip(&mut counts) {
            let bin = if v.is_nan() {
                edges.len()
            } else {
                edges.partition_point(|&e| e < v).min(edges.len() - 1)
            };
            counts[bin].0 += 1;
            counts[bin].1 += usize::from(label);
        }
    }
    counts
}

/// `expected_top_n_average_precision(&model.margins(eval), labels, n)` of
/// a single-feature model, from the eval rows counted per train bin
/// (`counts`, as [`eval_bin_counts`] builds them; `n_rows` rows in all).
///
/// Every stump of the model splits at one of the feature's bin `edges`,
/// and a present value is at most `edges[s]` exactly when its bin is at
/// most `s` (the clamp only touches the last bin, which no split leaves
/// on the left). So every row of one bin gets one margin, summed here as
/// [`BStump::margin`] sums it, and missing rows get the sum of the
/// stumps' abstentions. Bins with equal margins (`==`, so `+0.0` and
/// `-0.0` too) form one tie group, as they do in the ranked rows; the
/// groups in descending margin order go through the same walk.
fn grouped_top_n_ap(
    model: &BStump,
    edges: &[f32],
    counts: &[(usize, usize)],
    n_rows: usize,
    n: usize,
) -> f64 {
    let k = edges.len();
    let splits: Vec<usize> =
        model.stumps().iter().map(|s| edges.partition_point(|&e| e < s.threshold)).collect();
    let mut bins: Vec<(f64, usize, usize)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &(rows, _))| rows > 0)
        .map(|(bin, &(rows, positives))| {
            let margin: f64 = model
                .stumps()
                .iter()
                .zip(&splits)
                .map(|(stump, &split)| {
                    if bin == k {
                        0.0
                    } else if bin <= split {
                        stump.s_le
                    } else {
                        stump.s_gt
                    }
                })
                .sum();
            (margin, rows, positives)
        })
        .collect();
    bins.sort_by(|a, b| cmp_desc(a.0, b.0));
    let mut tie_groups: Vec<(f64, usize, usize)> = Vec::with_capacity(bins.len());
    for (margin, rows, positives) in bins {
        match tie_groups.last_mut() {
            Some(group) if same_score(group.0, margin) => {
                group.1 += rows;
                group.2 += positives;
            }
            _ => tie_groups.push((margin, rows, positives)),
        }
    }
    expected_top_n_ap_of_tie_groups(tie_groups.into_iter().map(|g| (g.1, g.2)), n_rows, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{FeatureMatrix, FeatureMeta};
    use crate::metrics::expected_top_n_average_precision;
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

    /// A column of one of several shapes, `missing` of it `NaN` on
    /// average; `spread` widens the continuous and grid shapes, so an eval
    /// column drawn wider than its train column has values below the first
    /// train edge and above the last.
    fn shaped_column(rng: &mut ChaCha8Rng, n: usize, shape: u32, spread: f32) -> Vec<f32> {
        let missing = [0.0, 0.1, 0.5, 1.0][rng.random_range(0..4usize)];
        (0..n)
            .map(|_| {
                if rng.random_bool(missing) {
                    return f32::NAN;
                }
                match shape {
                    0 => (rng.random::<f32>() - 0.5) * spread,
                    1 => (rng.random_range(0..7u32) as f32 - 3.0) * spread,
                    2 => rng.random_range(0..2u32) as f32,
                    3 => [-0.0, 0.0, 1.0][rng.random_range(0..3usize)],
                    _ => 5.0,
                }
            })
            .collect()
    }

    /// Train and eval datasets over the same column shapes, the eval
    /// columns drawn wider than the train ones.
    fn shaped_pair(rng: &mut ChaCha8Rng, n_train: usize, n_eval: usize) -> (Dataset, Dataset) {
        let n_cols = rng.random_range(1..6usize);
        let shapes: Vec<u32> = (0..n_cols).map(|_| rng.random_range(0..5u32)).collect();
        let positives = rng.random_range(0.02..0.5);
        let mut dataset = |n: usize, spread: f32| {
            let cols: Vec<Vec<f32>> =
                shapes.iter().map(|&shape| shaped_column(rng, n, shape, spread)).collect();
            let values = (0..n).flat_map(|r| cols.iter().map(move |c| c[r])).collect();
            let meta = (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
            let labels = (0..n).map(|_| rng.random_bool(positives)).collect();
            Dataset::new(FeatureMatrix::new(n, meta, values), labels)
        };
        let train = dataset(n_train, 1.0);
        let eval = dataset(n_eval, 1.5);
        (train, eval)
    }

    /// Every bit of the grouped AP(N) of each single-feature model equals
    /// `expected_top_n_average_precision` over the model's margins on
    /// every eval row.
    fn assert_grouped_matches_margins(train: &Dataset, eval: &Dataset, iterations: usize) {
        let n_bins = 16;
        let binned = BinnedDataset::from_matrix(&train.x, n_bins);
        let w0 = vec![1.0 / train.len() as f64; train.len()];
        let boost_cfg = BoostConfig { iterations, n_bins, smoothing: None, parallel: false };
        let counts = eval_bin_counts(&binned, eval, 0..train.x.n_cols());
        for (feature, counts) in counts.iter().enumerate() {
            let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[feature]);
            let margins = model.margins(&eval.x);
            let edges = &binned.feature(feature).edges;
            for n in [1, eval.len(), eval.len() + 7, usize::MAX] {
                let grouped = grouped_top_n_ap(&model, edges, counts, eval.len(), n);
                let reference = expected_top_n_average_precision(&margins, &eval.y, n);
                assert_eq!(
                    grouped.to_bits(),
                    reference.to_bits(),
                    "feature {feature}, n {n}: {grouped} vs {reference}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Grouped AP(N) equals the metric over per-row margins bit for
        /// bit: continuous, grid, binary and signed-zero columns, eval
        /// values outside the train range and missing, one to eight
        /// stumps (so bins on one side of every split share a margin).
        #[test]
        fn grouped_ap_matches_the_metric_over_row_margins(
            seed in 0u64..u64::MAX,
            n_train in 2usize..400,
            n_eval in 1usize..300,
            iterations in 1usize..9,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (train, eval) = shaped_pair(&mut rng, n_train, n_eval);
            assert_grouped_matches_margins(&train, &eval, iterations);
        }
    }

    /// A bin whose every stump emits `-0.0` has margin `-0.0`; missing
    /// rows and bins whose scores cancel have `+0.0`. They tie in the
    /// ranked rows, and the grouped walk must merge them the same way.
    #[test]
    fn signed_zero_margins_form_one_tie_group() {
        let x = FeatureMatrix::new(
            8,
            vec![FeatureMeta::continuous("f")],
            vec![1.0, 2.0, 3.0, 4.0, f32::NAN, 1.0, 3.0, 2.0],
        );
        let eval = Dataset::new(x, vec![true, false, true, false, true, false, false, true]);
        let binned = BinnedDataset::from_matrix(&eval.x, 8);
        let edges = &binned.feature(0).edges;
        assert_eq!(edges, &vec![1.0, 2.0, 3.0, 4.0]);
        let model: BStump = serde_json::from_str(
            r#"{"stumps": [
                {"feature": 0, "threshold": 1.0, "s_le": -0.0, "s_gt": 0.25},
                {"feature": 0, "threshold": 1.0, "s_le": -0.0, "s_gt": -0.25},
                {"feature": 0, "threshold": 3.0, "s_le": -0.0, "s_gt": 0.5}
            ], "n_features": 1}"#,
        )
        .expect("model parses");
        let margins = model.margins(&eval.x);
        let bits: Vec<u64> = margins.iter().map(|m| m.to_bits()).collect();
        let (neg, pos, half) = ((-0.0f64).to_bits(), 0.0f64.to_bits(), 0.5f64.to_bits());
        assert_eq!(bits, [neg, pos, pos, half, pos, neg, pos, pos], "{margins:?}");
        let counts = eval_bin_counts(&binned, &eval, 0..1);
        for n in [1, 2, 5, 8, 100] {
            let grouped = grouped_top_n_ap(&model, edges, &counts[0], eval.len(), n);
            let reference = expected_top_n_average_precision(&margins, &eval.y, n);
            assert_eq!(grouped.to_bits(), reference.to_bits(), "n {n}");
        }
    }

    /// `score_features` under AP(N) returns, for every column, what a
    /// plain loop returns: fit the single-feature model, take its margin
    /// on every eval row, compute the metric.
    #[test]
    fn top_n_ap_scores_match_a_fit_margins_metric_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let (train, eval) = shaped_pair(&mut rng, 900, 700);
        let graded = (graded_dataset(900, 32), graded_dataset(700, 33));
        let config = SelectConfig { model_iterations: 6, n_bins: 32 };
        for (train, eval) in [(train, eval), graded] {
            let binned = BinnedDataset::from_matrix(&train.x, config.n_bins);
            let w0 = vec![1.0 / train.len() as f64; train.len()];
            let boost_cfg = BoostConfig {
                iterations: config.model_iterations,
                n_bins: config.n_bins,
                smoothing: None,
                parallel: false,
            };
            for n in [1, 35, eval.len()] {
                let criterion = SelectionCriterion::TopNAp { n };
                let scores = score_features(&train, &eval, criterion, &config);
                for (feature, scored) in scores.iter().enumerate() {
                    let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[feature]);
                    let metric = if model.stumps().is_empty() {
                        0.0
                    } else {
                        expected_top_n_average_precision(&model.margins(&eval.x), &eval.y, n)
                    };
                    let metric = if metric.is_nan() { 0.0 } else { metric };
                    assert_eq!(scored.feature, feature);
                    assert_eq!(
                        scored.score.to_bits(),
                        metric.to_bits(),
                        "feature {feature}, n {n}"
                    );
                }
            }
        }
    }
}
