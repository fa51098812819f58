//! Feature selection — the Sec. 4.3 framework plus the Table-4 baselines.
//!
//! The paper's method scores every candidate feature by training a *single-
//! feature* predictor on a training window, evaluating it on a separate test
//! window, and ranking features by the resulting metric. The novel criterion
//! is the top-N average precision `AP(N)` with `N` equal to the operational
//! budget; the baselines (Table 4) are ROC AUC, classic average precision,
//! PCA loadings and gain ratio.
//!
//! Model-based criteria train their single-feature models from columns
//! written on demand ([`score_columns`]; [`score_features`] writes them
//! from a matrix): each [`nevermind_obs::par`] part takes groups of four
//! candidates, writes and bins each one's training column, boosts the
//! four models in lockstep (`BStump::fit_each_column`), then writes
//! each one's eval column and scores the model on it. Results are
//! deterministic because each feature's score depends only on its own
//! column.
//!
//! A fitted single-feature model's distinct thresholds cut the eval
//! values into *cells*: every value in one cell sits on the same side of
//! every stump, so it gets one margin. `AP(N)` ranks no eval row: it
//! counts each cell's rows and positives, merges cells with equal margins
//! into tie groups, and runs the walk
//! [`crate::metrics::expected_top_n_average_precision`] runs over its
//! argsort — the same score to the bit, in O(cells) after the count. The
//! Table-4 baselines `Auc` and `AveragePrecision` read each row's margin
//! off its cell.

use crate::boost::{uniform_weights, BStump, BoostConfig, LANES};
use crate::data::{Dataset, FeatureMatrix};
use crate::entropy::gain_ratio;
use crate::metrics::{auc, average_precision, expected_top_n_ap_of_tie_groups, same_score};
use crate::pca::Pca;
use crate::rank::cmp_desc;

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

/// Scores `n_features` candidate columns under a model-based criterion
/// (`TopNAp`, `Auc` or `AveragePrecision`) without a matrix:
/// `write_train(c, column)` writes candidate `c`'s value on each training
/// row (labels `train_y`) into `column`, and `write_eval(c, column)` its
/// value on each eval row (labels `eval_y`); `NaN` is missing. Returns
/// what [`score_features`] returns for matrices holding those columns.
///
/// Every part of the fan-out holds the columns of one group of four
/// candidates at a time, never a matrix: a caller can derive the
/// candidates from a narrower source (the ticket predictor writes its
/// quadratic and product candidates from the base columns).
///
/// # Panics
/// Panics if the criterion needs a matrix (`Pca`, `GainRatio`), or if a
/// candidate is scored over no training rows.
pub fn score_columns(
    n_features: usize,
    train_y: &[bool],
    eval_y: &[bool],
    criterion: SelectionCriterion,
    config: &SelectConfig,
    write_train: impl Fn(usize, &mut [f32]) + Sync,
    write_eval: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<FeatureScore> {
    let _span = nevermind_obs::span!("ml/score_features");
    nevermind_obs::counter_add!("ml/features_scored", n_features);
    score_written(n_features, train_y, eval_y, criterion, config, 0, &write_train, &write_eval)
}

/// [`score_columns`] over a matrix pair's columns, on `threads`
/// [`nevermind_obs::par`] parts (`0` = every core).
fn score_model_based(
    train: &Dataset,
    eval: &Dataset,
    criterion: SelectionCriterion,
    config: &SelectConfig,
    threads: usize,
) -> Vec<FeatureScore> {
    let write = |x: &FeatureMatrix, c: usize, out: &mut [f32]| {
        for (v, value) in out.iter_mut().zip(x.column(c)) {
            *v = value;
        }
    };
    score_written(
        train.x.n_cols(),
        &train.y,
        &eval.y,
        criterion,
        config,
        threads,
        &|c, out| write(&train.x, c, out),
        &|c, out| write(&eval.x, c, out),
    )
}

/// [`score_columns`] on `threads` parts, each taking groups of [`LANES`]
/// candidates.
#[allow(clippy::too_many_arguments)] // `score_columns`' arguments and a part count
fn score_written(
    n_features: usize,
    train_y: &[bool],
    eval_y: &[bool],
    criterion: SelectionCriterion,
    config: &SelectConfig,
    threads: usize,
    write_train: &(impl Fn(usize, &mut [f32]) + Sync),
    write_eval: &(impl Fn(usize, &mut [f32]) + Sync),
) -> Vec<FeatureScore> {
    assert!(
        matches!(
            criterion,
            SelectionCriterion::TopNAp { .. }
                | SelectionCriterion::Auc
                | SelectionCriterion::AveragePrecision
        ),
        "{criterion:?} scores a matrix, not single-feature models"
    );
    let w0 = uniform_weights(train_y.len());
    let boost_cfg = BoostConfig {
        iterations: config.model_iterations,
        n_bins: config.n_bins,
        smoothing: None,
        parallel: false, // parallelism is across features here
    };
    let scores = nevermind_obs::par::map(n_features.div_ceil(LANES), threads, |groups| {
        let mut eval_column = vec![0.0f32; eval_y.len()];
        let mut cells = Vec::new();
        let mut scores = Vec::with_capacity(groups.len() * LANES);
        for g in groups {
            let first = g * LANES;
            let lanes = first..(first + LANES).min(n_features);
            let models =
                BStump::fit_each_column(lanes.len(), train_y, &w0, &boost_cfg, |j, out| {
                    write_train(first + j, out)
                });
            for (feature, model) in lanes.zip(&models) {
                let score = if model.stumps().is_empty() {
                    0.0
                } else {
                    write_eval(feature, &mut eval_column);
                    let scorer = CellScores::new(model);
                    scorer.cells(&eval_column, &mut cells);
                    match criterion {
                        // Tie-averaged: single-feature models emit few
                        // distinct scores, and the exact AP@N would measure
                        // tie-order noise.
                        SelectionCriterion::TopNAp { n } => scorer.top_n_ap(&cells, eval_y, n),
                        SelectionCriterion::Auc => auc(&scorer.margins(&cells), eval_y),
                        SelectionCriterion::AveragePrecision => {
                            average_precision(&scorer.margins(&cells), eval_y)
                        }
                        _ => unreachable!("checked above"),
                    }
                };
                scores.push(FeatureScore {
                    feature,
                    score: if score.is_nan() { 0.0 } else { score },
                });
            }
        }
        scores
    });
    scores.concat()
}

/// A single-feature model's margins by *cell*. Its `m` distinct
/// thresholds, ascending, cut the present values into `m + 1` cells: a
/// value's cell is the number of thresholds below it, and cell `m + 1`
/// holds the missing values. A value is at most threshold `t_j` exactly
/// when its cell is at most `j`, so every value in a cell gets the same
/// stump scores: the cell's margin is [`BStump::margin`] of any of its
/// values — its upper threshold, `+∞` above the last threshold (no fitted
/// threshold is `+∞`: a split never leaves the last bin on its left), and
/// `NaN` for the missing cell.
struct CellScores {
    /// The distinct thresholds, ascending.
    thresholds: Vec<f32>,
    /// Each cell's margin; the last is the missing cell's.
    margins: Vec<f64>,
}

impl CellScores {
    /// The cells of a model that reads its feature as column 0.
    fn new(model: &BStump) -> Self {
        let mut thresholds: Vec<f32> = model.stumps().iter().map(|s| s.threshold).collect();
        thresholds.sort_by(f32::total_cmp);
        thresholds.dedup();
        let values = thresholds.iter().copied().chain([f32::INFINITY, f32::NAN]);
        let margins = values.map(|v| model.margin(&[v])).collect();
        Self { thresholds, margins }
    }

    /// Each value's cell, into `cells`: one branch-free pass per
    /// threshold, then the missing values moved to the last cell.
    fn cells(&self, column: &[f32], cells: &mut Vec<u16>) {
        cells.clear();
        cells.resize(column.len(), 0);
        for &t in &self.thresholds {
            for (cell, &v) in cells.iter_mut().zip(column) {
                *cell += u16::from(t < v);
            }
        }
        // Fits: a fitted model's thresholds are distinct bin edges, at
        // most `MAX_BINS` of them.
        let missing = (self.margins.len() - 1) as u16;
        for (cell, &v) in cells.iter_mut().zip(column) {
            if v.is_nan() {
                *cell = missing;
            }
        }
    }

    /// Each row's margin, read off its cell.
    fn margins(&self, cells: &[u16]) -> Vec<f64> {
        cells.iter().map(|&cell| self.margins[usize::from(cell)]).collect()
    }

    /// `expected_top_n_average_precision(&margins, labels, n)` from each
    /// cell's rows and positives: cells with equal margins (`==`, so
    /// `+0.0` and `-0.0` too) form one tie group, as they do in the
    /// ranked rows, and the groups in descending margin order go through
    /// the same walk.
    fn top_n_ap(&self, cells: &[u16], labels: &[bool], n: usize) -> f64 {
        let mut counts = vec![(0usize, 0usize); self.margins.len()];
        for (&cell, &label) in cells.iter().zip(labels) {
            let count = &mut counts[usize::from(cell)];
            count.0 += 1;
            count.1 += usize::from(label);
        }
        let mut groups: Vec<(f64, usize, usize)> = self
            .margins
            .iter()
            .zip(counts)
            .filter(|(_, (rows, _))| *rows > 0)
            .map(|(&margin, (rows, positives))| (margin, rows, positives))
            .collect();
        groups.sort_by(|a, b| cmp_desc(a.0, b.0));
        let mut tie_groups: Vec<(f64, usize, usize)> = Vec::with_capacity(groups.len());
        for (margin, rows, positives) in groups {
            match tie_groups.last_mut() {
                Some(group) if same_score(group.0, margin) => {
                    group.1 += rows;
                    group.2 += positives;
                }
                _ => tie_groups.push((margin, rows, positives)),
            }
        }
        expected_top_n_ap_of_tie_groups(tie_groups.into_iter().map(|g| (g.1, g.2)), cells.len(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMeta;
    use crate::metrics::expected_top_n_average_precision;
    use crate::stump::{BinnedDataset, MAX_BINS};
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

    /// The features by descending score under the criterion, ties by
    /// column order.
    fn ranked(train: &Dataset, eval: &Dataset, criterion: SelectionCriterion) -> Vec<usize> {
        let mut scores = score_features(train, eval, criterion, &cfg());
        scores.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.feature.cmp(&b.feature)));
        scores.into_iter().map(|s| s.feature).collect()
    }

    #[test]
    fn top_n_ap_ranks_strong_first() {
        let train = graded_dataset(3000, 1);
        let eval = graded_dataset(1500, 2);
        let order = ranked(&train, &eval, SelectionCriterion::TopNAp { n: 150 });
        assert_eq!(order[0], 0, "strong feature must rank first: {order:?}");
        assert_eq!(*order.last().expect("three features"), 2, "noise last: {order:?}");
    }

    #[test]
    fn auc_ranks_strong_first() {
        let train = graded_dataset(3000, 3);
        let eval = graded_dataset(1500, 4);
        let order = ranked(&train, &eval, SelectionCriterion::Auc);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn average_precision_ranks_strong_first() {
        let train = graded_dataset(3000, 5);
        let eval = graded_dataset(1500, 6);
        let order = ranked(&train, &eval, SelectionCriterion::AveragePrecision);
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

    /// Every bit of each eval row's cell margin, and of the cell-counted
    /// AP(N), of each single-feature model equals the model's margin on
    /// that row and `expected_top_n_average_precision` over those margins.
    fn assert_cells_match_margins(train: &Dataset, eval: &Dataset, iterations: usize) {
        let n_bins = 16;
        let w0 = vec![1.0 / train.len() as f64; train.len()];
        let boost_cfg = BoostConfig { iterations, n_bins, smoothing: None, parallel: false };
        let mut cells = Vec::new();
        for feature in 0..train.x.n_cols() {
            let (train, eval) = (train.select_columns(&[feature]), eval.select_columns(&[feature]));
            let binned = BinnedDataset::from_matrix(&train.x, n_bins);
            let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[0]);
            let margins = model.margins(&eval.x);
            let scorer = CellScores::new(&model);
            let column: Vec<f32> = eval.x.column(0).collect();
            scorer.cells(&column, &mut cells);
            let bits = |m: &[f64]| m.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scorer.margins(&cells)), bits(&margins), "feature {feature}");
            for n in [1, eval.len(), eval.len() + 7, usize::MAX] {
                let counted = scorer.top_n_ap(&cells, &eval.y, n);
                let reference = expected_top_n_average_precision(&margins, &eval.y, n);
                assert_eq!(
                    counted.to_bits(),
                    reference.to_bits(),
                    "feature {feature}, n {n}: {counted} vs {reference}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Cell-counted AP(N) equals the metric over per-row margins bit
        /// for bit: continuous, grid, binary and signed-zero columns, eval
        /// values outside the train range and missing, one to eight
        /// stumps (so cells on one side of every split share a margin).
        #[test]
        fn grouped_ap_matches_the_metric_over_row_margins(
            seed in 0u64..u64::MAX,
            n_train in 2usize..400,
            n_eval in 1usize..300,
            iterations in 1usize..9,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (train, eval) = shaped_pair(&mut rng, n_train, n_eval);
            assert_cells_match_margins(&train, &eval, iterations);
        }
    }

    /// A cell whose every stump emits `-0.0` has margin `-0.0`; missing
    /// rows and cells whose scores cancel have `+0.0`. They tie in the
    /// ranked rows, and the counted walk must merge them the same way.
    #[test]
    fn signed_zero_margins_form_one_tie_group() {
        let x = FeatureMatrix::new(
            8,
            vec![FeatureMeta::continuous("f")],
            vec![1.0, 2.0, 3.0, 4.0, f32::NAN, 1.0, 3.0, 2.0],
        );
        let eval = Dataset::new(x, vec![true, false, true, false, true, false, false, true]);
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
        let scorer = CellScores::new(&model);
        let column: Vec<f32> = eval.x.column(0).collect();
        let mut cells = Vec::new();
        scorer.cells(&column, &mut cells);
        assert_eq!(
            cells,
            [0, 1, 1, 2, 3, 0, 1, 1],
            "two thresholds, three cells and the missing one"
        );
        for n in [1, 2, 5, 8, 100] {
            let counted = scorer.top_n_ap(&cells, &eval.y, n);
            let reference = expected_top_n_average_precision(&margins, &eval.y, n);
            assert_eq!(counted.to_bits(), reference.to_bits(), "n {n}");
        }
    }

    /// Model-based scoring as it ran before the column-fed scorer: one
    /// `fit_binned` per candidate over one shared binning of the train
    /// matrix, AP(N) from the eval rows counted per train bin, and the
    /// model's per-row margins for AUC and average precision.
    fn reference_scores(
        train: &Dataset,
        eval: &Dataset,
        criterion: SelectionCriterion,
        config: &SelectConfig,
    ) -> Vec<FeatureScore> {
        let binned = BinnedDataset::from_matrix(&train.x, config.n_bins);
        let w0 = vec![1.0 / train.len().max(1) as f64; train.len()];
        let boost_cfg = BoostConfig {
            iterations: config.model_iterations,
            n_bins: config.n_bins,
            smoothing: None,
            parallel: false,
        };
        (0..train.x.n_cols())
            .map(|feature| {
                let model = BStump::fit_binned(&binned, &train.y, &w0, &boost_cfg, &[feature]);
                let score = if model.stumps().is_empty() {
                    0.0
                } else {
                    match criterion {
                        SelectionCriterion::TopNAp { n } => {
                            let edges = &binned.feature(feature).edges;
                            let counts = reference_bin_counts(edges, eval, feature);
                            reference_grouped_ap(&model, edges, &counts, eval.len(), n)
                        }
                        SelectionCriterion::Auc => auc(&model.margins(&eval.x), &eval.y),
                        SelectionCriterion::AveragePrecision => {
                            average_precision(&model.margins(&eval.x), &eval.y)
                        }
                        _ => unreachable!("model-based criteria only"),
                    }
                };
                FeatureScore { feature, score: if score.is_nan() { 0.0 } else { score } }
            })
            .collect()
    }

    /// Rows and positives of `eval` per bin of a train binning with bin
    /// `edges`, for one feature: entry `b` counts the rows whose value
    /// falls in bin `b` (the number of edges below it, clamped to the last
    /// bin), entry `k` the rows missing it.
    fn reference_bin_counts(edges: &[f32], eval: &Dataset, feature: usize) -> Vec<(usize, usize)> {
        let mut counts = vec![(0, 0); edges.len() + 1];
        for (v, &label) in eval.x.column(feature).zip(&eval.y) {
            let bin = if v.is_nan() {
                edges.len()
            } else {
                edges.partition_point(|&e| e < v).min(edges.len() - 1)
            };
            counts[bin].0 += 1;
            counts[bin].1 += usize::from(label);
        }
        counts
    }

    /// AP(N) of a single-feature model from its eval rows counted per
    /// train bin: every row of a bin gets one margin, bins with equal
    /// margins form one tie group.
    fn reference_grouped_ap(
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

    /// Train and eval datasets of `n_cols` columns of mixed shapes
    /// (`shaped_column`'s, which include constant and all-`NaN` columns,
    /// plus a column whose every value pairs an even row with the odd row
    /// after it). A third of the train sets alternate their labels over an
    /// even row count, so that paired column's every bin holds as many
    /// positives as negatives: its first split has `Z = 1` and its model
    /// stops before its first round.
    fn lane_pair(
        rng: &mut ChaCha8Rng,
        n_train: usize,
        n_eval: usize,
        n_cols: usize,
    ) -> (Dataset, Dataset) {
        let balanced = rng.random_bool(0.3);
        let n_train = if balanced { (n_train & !1).max(2) } else { n_train };
        let shapes: Vec<u32> = (0..n_cols).map(|_| rng.random_range(0..6u32)).collect();
        let positives = rng.random_range(0.02..0.5);
        let mut dataset = |n: usize, spread: f32, alternate: bool| {
            let cols: Vec<Vec<f32>> = shapes
                .iter()
                .map(|&shape| match shape {
                    5 => (0..n).map(|r| ((r / 2) % 3) as f32).collect(),
                    _ => shaped_column(rng, n, shape, spread),
                })
                .collect();
            let values = (0..n).flat_map(|r| cols.iter().map(move |c| c[r])).collect();
            let meta = (0..n_cols).map(|c| FeatureMeta::continuous(format!("f{c}"))).collect();
            let labels = (0..n)
                .map(|r| if alternate { r % 2 == 0 } else { rng.random_bool(positives) })
                .collect();
            Dataset::new(FeatureMatrix::new(n, meta, values), labels)
        };
        let train = dataset(n_train, 1.0, balanced);
        let eval = dataset(n_eval, 1.5, false);
        (train, eval)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The column-fed scorer gives every candidate the score the
        /// per-candidate reference gives it, bit for bit, under all three
        /// model-based criteria: 1–9 candidates (every remainder of a
        /// four-wide group), lanes that stop in different rounds (constant,
        /// all-`NaN` and `Z = 1` columns beside live ones), `NaN` holes,
        /// `±0.0`, binary and coarse-grid columns, 2–`MAX_BINS` bins and 0–12
        /// iterations, on one part and on two.
        #[test]
        fn column_fed_scores_match_the_per_candidate_reference(
            seed in 0u64..u64::MAX,
            n_train in 2usize..300,
            n_eval in 1usize..200,
            n_cols in 1usize..10,
            n_bins in 2usize..=MAX_BINS,
            iterations in 0usize..13,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (train, eval) = lane_pair(&mut rng, n_train, n_eval, n_cols);
            let config = SelectConfig { model_iterations: iterations, n_bins };
            let n = rng.random_range(1..=n_eval + 3);
            let criteria = [
                SelectionCriterion::TopNAp { n },
                SelectionCriterion::Auc,
                SelectionCriterion::AveragePrecision,
            ];
            for criterion in criteria {
                let reference = reference_scores(&train, &eval, criterion, &config);
                for threads in [1, 2] {
                    let scores = score_model_based(&train, &eval, criterion, &config, threads);
                    proptest::prop_assert_eq!(scores.len(), reference.len());
                    for (got, want) in scores.iter().zip(&reference) {
                        proptest::prop_assert_eq!(got.feature, want.feature);
                        proptest::prop_assert_eq!(
                            got.score.to_bits(),
                            want.score.to_bits(),
                            "{:?}, feature {}: {} vs {}",
                            criterion,
                            got.feature,
                            got.score,
                            want.score
                        );
                    }
                }
            }
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
