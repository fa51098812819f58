//! Model comparison — the Sec.-4.4 design-choice ablation.
//!
//! The paper justifies BStump twice: it is "the most scalable while having
//! an accuracy comparable to sophisticated non-linear classifiers" (citing
//! the authors' traffic-classification system), and, because unreported
//! problems mislabel positives as negatives, "sophisticated non-linear
//! models overfit easily, we hence choose a linear model". This module
//! trains the alternatives on exactly the same selected features and
//! training window so the claim can be measured rather than asserted:
//!
//! * **BStump** — the paper's model (via [`TicketPredictor`]);
//! * **logistic regression** — a plain linear model on standardized
//!   features (missing → 0 after standardization);
//! * **Gaussian Naive Bayes** — a cheap generative baseline;
//! * **deep CART tree** — the overfitting-prone non-linear comparator;
//! * **shallow CART tree** — the same model family, capacity-limited.

use crate::pipeline::{ExperimentData, SplitSpec};
use crate::predictor::{PredictorConfig, TicketPredictor};
use nevermind_ml::bayes::GaussianNb;
use nevermind_ml::data::{Dataset, FeatureMatrix};
use nevermind_ml::logistic::LogisticRegression;
use nevermind_ml::stats::RunningMoments;
use nevermind_ml::tree::{DecisionTree, TreeConfig};
use serde::{Deserialize, Serialize};

/// Which alternative model to train on the predictor's feature space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlternativeModel {
    /// Plain logistic regression on standardized features.
    Logistic,
    /// Gaussian Naive Bayes.
    NaiveBayes,
    /// CART, depth 16 / leaf 1 — deliberately allowed to overfit.
    DeepTree,
    /// CART, depth 4 — capacity-limited.
    ShallowTree,
}

impl AlternativeModel {
    /// All alternatives, in presentation order.
    pub const ALL: [AlternativeModel; 4] = [
        AlternativeModel::Logistic,
        AlternativeModel::NaiveBayes,
        AlternativeModel::DeepTree,
        AlternativeModel::ShallowTree,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AlternativeModel::Logistic => "logistic regression",
            AlternativeModel::NaiveBayes => "gaussian naive bayes",
            AlternativeModel::DeepTree => "deep CART (depth 16)",
            AlternativeModel::ShallowTree => "shallow CART (depth 4)",
        }
    }
}

/// Result of one model's run in the comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelResult {
    /// Model label.
    pub model: String,
    /// Precision within the training window's own top budget (in-sample).
    pub train_precision: f64,
    /// Precision within the test-window budget (out-of-sample).
    pub test_precision: f64,
}

/// Trains every alternative on the BStump predictor's selected feature
/// space and ranks the same test population.
///
/// Returns the BStump row first, then the alternatives. The overfitting
/// signature the paper warns about shows up as a large gap between
/// `train_precision` and `test_precision` for the deep tree.
pub fn compare_models(
    data: &ExperimentData,
    split: &SplitSpec,
    config: &PredictorConfig,
    predictor: &TicketPredictor,
) -> Vec<ModelResult> {
    let encoder = data.encoder(config.encoder.clone());
    let base_train = encoder.encode(&split.train_days);
    let base_test = encoder.encode(&split.test_days);
    let train = predictor.assemble(&base_train);
    let test = predictor.assemble(&base_test);
    let train_budget = config.budget(train.len());
    let test_budget = config.budget(test.len());

    let mut results = Vec::new();

    // BStump (already fitted).
    let bstump_train = predictor.model().margins(&train.x);
    let bstump_test = predictor.model().margins(&test.x);
    results.push(ModelResult {
        model: "BStump (paper)".to_string(),
        train_precision: nevermind_ml::metrics::precision_at_k(
            &bstump_train,
            &train.y,
            train_budget,
        ),
        test_precision: nevermind_ml::metrics::precision_at_k(&bstump_test, &test.y, test_budget),
    });

    for alt in AlternativeModel::ALL {
        let (train_scores, test_scores) = fit_and_score(alt, &train, &test);
        results.push(ModelResult {
            model: alt.label().to_string(),
            train_precision: nevermind_ml::metrics::precision_at_k(
                &train_scores,
                &train.y,
                train_budget,
            ),
            test_precision: nevermind_ml::metrics::precision_at_k(
                &test_scores,
                &test.y,
                test_budget,
            ),
        });
    }
    results
}

fn fit_and_score(alt: AlternativeModel, train: &Dataset, test: &Dataset) -> (Vec<f64>, Vec<f64>) {
    match alt {
        AlternativeModel::Logistic => {
            let (x_train, stats) = standardize(&train.x, None);
            let (x_test, _) = standardize(&test.x, Some(&stats));
            let model = LogisticRegression { ridge: 1e-3, ..LogisticRegression::default() }
                .fit(&x_train, &train.y);
            let score = |rows: &[Vec<f64>]| -> Vec<f64> {
                rows.iter().map(|r| model.probability(r)).collect()
            };
            (score(&x_train), score(&x_test))
        }
        AlternativeModel::NaiveBayes => {
            let model = GaussianNb::fit(train);
            (model.log_odds_batch(&train.x), model.log_odds_batch(&test.x))
        }
        AlternativeModel::DeepTree => {
            let cfg = TreeConfig {
                max_depth: 16,
                min_samples_split: 2,
                min_samples_leaf: 1,
                n_candidates: 32,
            };
            let model = DecisionTree::fit(train, &cfg);
            (model.probabilities(&train.x), model.probabilities(&test.x))
        }
        AlternativeModel::ShallowTree => {
            let cfg = TreeConfig { max_depth: 4, ..TreeConfig::default() };
            let model = DecisionTree::fit(train, &cfg);
            (model.probabilities(&train.x), model.probabilities(&test.x))
        }
    }
}

/// Column standardization (z-scores) with NaN → 0 after centering, so a
/// missing feature contributes nothing to a linear score. Returns the rows
/// and the (mean, sd) statistics used; pass stats back in to apply a fitted
/// standardization to new data.
fn standardize(
    x: &FeatureMatrix,
    stats: Option<&Vec<(f64, f64)>>,
) -> (Vec<Vec<f64>>, Vec<(f64, f64)>) {
    let p = x.n_cols();
    let stats: Vec<(f64, f64)> = match stats {
        Some(s) => s.clone(),
        None => {
            let mut ms = vec![RunningMoments::new(); p];
            for r in 0..x.n_rows() {
                for (c, m) in ms.iter_mut().enumerate() {
                    m.push(f64::from(x.get(r, c)));
                }
            }
            ms.iter().map(|m| (m.mean(), m.std_dev().max(1e-9))).collect()
        }
    };
    let rows: Vec<Vec<f64>> = (0..x.n_rows())
        .map(|r| {
            (0..p)
                .map(|c| {
                    let v = f64::from(x.get(r, c));
                    if v.is_nan() {
                        0.0
                    } else {
                        (v - stats[c].0) / stats[c].1
                    }
                })
                .collect()
        })
        .collect();
    (rows, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::SimConfig;

    fn setup() -> (ExperimentData, SplitSpec, PredictorConfig, TicketPredictor) {
        let mut sim = SimConfig::small(303);
        sim.n_lines = 2_500;
        let data = ExperimentData::simulate(sim);
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = PredictorConfig {
            iterations: 80,
            selection_iterations: 4,
            n_base: 20,
            n_quadratic: 8,
            n_product: 8,
            selection_row_cap: 6_000,
            ..PredictorConfig::default()
        };
        let (p, _) = TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
        (data, split, cfg, p)
    }

    #[test]
    fn comparison_covers_all_models_with_valid_precisions() {
        let (data, split, cfg, predictor) = setup();
        let results = compare_models(&data, &split, &cfg, &predictor);
        assert_eq!(results.len(), 1 + AlternativeModel::ALL.len());
        assert_eq!(results[0].model, "BStump (paper)");
        for r in &results {
            assert!(
                r.train_precision.is_nan() || (0.0..=1.0).contains(&r.train_precision),
                "{}: train {}",
                r.model,
                r.train_precision
            );
            assert!(
                (0.0..=1.0).contains(&r.test_precision),
                "{}: test {}",
                r.model,
                r.test_precision
            );
        }
    }

    #[test]
    fn deep_tree_shows_larger_generalization_gap_than_bstump() {
        let (data, split, cfg, predictor) = setup();
        let results = compare_models(&data, &split, &cfg, &predictor);
        let get = |label: &str| {
            results
                .iter()
                .find(|r| r.model.contains(label))
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let bstump = get("BStump");
        let deep = get("deep CART");
        let gap = |r: &ModelResult| r.train_precision - r.test_precision;
        assert!(
            gap(deep) > gap(bstump) - 1e-9,
            "deep tree gap {:.3} vs BStump gap {:.3}",
            gap(deep),
            gap(bstump)
        );
        // And the paper's model must be the better ranker out of sample
        // than the deliberately-overfit tree.
        assert!(
            bstump.test_precision >= deep.test_precision - 0.02,
            "BStump {:.3} vs deep tree {:.3}",
            bstump.test_precision,
            deep.test_precision
        );
    }
}
