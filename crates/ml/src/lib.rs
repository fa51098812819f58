//! # nevermind-ml
//!
//! Machine-learning substrate for the NEVERMIND reproduction (CoNEXT 2010).
//!
//! The paper's learning stack is small but specific, and the Rust ML ecosystem
//! is thin, so everything here is implemented from scratch:
//!
//! * [`boost`] — **BStump**: confidence-rated AdaBoost over one-level decision
//!   stumps (the paper's classifier, after BoosTexter / Schapire–Singer), with
//!   missing-value abstention and binned threshold search.
//! * [`calibrate`] — Platt scaling (the paper's "logistic calibration") that
//!   converts boosting margins into posterior probabilities, plus the
//!   calibration-quality metrics (reliability curve, expected calibration
//!   error, Brier score) the model-health telemetry tracks over time.
//! * [`drift`] — quantile binning and the population stability index (PSI)
//!   for detecting input-feature and score-distribution drift between a
//!   model's training window and later scoring weeks.
//! * [`logistic`] — logistic regression via iteratively reweighted least
//!   squares, with standard errors and Wald p-values (used for the combined
//!   locator model, Eq. 2, and the Table-5 outage correlation).
//! * [`pca`] — standardized principal component analysis by power iteration
//!   (one of the Table-4 baseline feature-selection criteria).
//! * [`entropy`] — binned entropy, information gain and gain ratio (another
//!   Table-4 criterion).
//! * [`metrics`] — ranking metrics: ROC AUC, average precision, precision@K
//!   curves and the paper's novel **top-N average precision** `AP(N)`
//!   (Sec. 4.3).
//! * [`score`] — **BatchScorer**: the trained ensemble compiled into
//!   per-stump bin→score lookup tables for fast population-scale margin
//!   evaluation over a columnar source, bit-identical to the per-row path
//!   at any part count.
//! * [`select`] — the single-feature-model feature-selection framework that
//!   ranks every candidate feature under any of the five criteria of Table 4.
//! * [`tree`], [`bayes`] — a CART decision tree and Gaussian Naive Bayes,
//!   the comparison models for the paper's Sec.-4.4 claim that
//!   "sophisticated non-linear models overfit easily" on noisy ticket
//!   labels.
//! * [`cv`] — deterministic k-fold splits and iteration-count selection.
//! * [`data`], [`stats`], [`linalg`], [`rank`] — supporting machinery.
//!
//! Everything is deterministic given explicit seeds; no global RNG state is
//! used anywhere. Missing measurements are represented as `NaN` and are
//! first-class citizens throughout (stumps abstain on them, statistics skip
//! them), mirroring the paper's modem-off records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
pub mod boost;
pub mod calibrate;
pub mod cv;
pub mod data;
pub mod drift;
pub mod entropy;
pub mod linalg;
pub mod logistic;
pub mod metrics;
pub mod pca;
pub mod rank;
pub mod score;
pub mod select;
pub mod stats;
pub mod stump;
pub mod tree;

pub use bayes::GaussianNb;
pub use boost::{BStump, BoostConfig};
pub use calibrate::{brier_score, expected_calibration_error, CalibrateError, PlattScale};
pub use data::{Dataset, FeatureKind, FeatureMatrix, FeatureMeta};
pub use drift::{bin_counts, psi, psi_from_samples, quantile_edges};
pub use logistic::{LogisticModel, LogisticRegression};
pub use metrics::{auc, average_precision, precision_at_k, top_n_average_precision};
pub use score::BatchScorer;
pub use select::{FeatureScore, SelectionCriterion};
pub use stump::Stump;
pub use tree::{DecisionTree, TreeConfig};
