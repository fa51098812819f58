//! The ticket predictor (Sec. 4): top-N-AP feature selection + BStump +
//! logistic calibration + budgeted ranking.
//!
//! Fitting follows the paper's recipe exactly:
//!
//! 1. encode the training and selection-evaluation windows into the Table-3
//!    base (history + customer) features;
//! 2. score every base feature by training a *single-feature* model on the
//!    training window and computing its **AP(N)** on the evaluation window,
//!    with `N` equal to the operational budget (Sec. 4.3);
//! 3. do the same for every derived quadratic and pairwise-product feature
//!    (Fig. 4's three histograms), keeping the best of each class;
//! 4. train the full BStump on the union of the selected columns;
//! 5. calibrate the margins into probabilities with Platt scaling on the
//!    evaluation window.
//!
//! The final model trains on the assembled feature space (the selected
//! base columns, then the derived columns) without building it:
//! `nevermind_features::encode::AssembledColumns` writes one assembled
//! column at a time from the base encoding into the column-fed
//! `BStump::fit_columns`, which bins and codes it before asking for the
//! next. Selection's matrices are built by
//! `nevermind_features::encode::assemble`. Every population score —
//! ranking, and the margins calibration fits on — goes through the one
//! compiled plan of [`crate::scoring`], which gathers the used columns
//! straight from the base encoding: no assembled matrix is built to rank.

use crate::error::PipelineError;
use crate::pipeline::{ExperimentData, SplitSpec};
use crate::scoring::CompiledPredictor;
use nevermind_features::encode::{
    all_products, all_quadratics, assemble, AssembledColumns, EncodedDataset, EncoderConfig, RowKey,
};
use nevermind_features::registry::{DerivedFeature, FeatureClass};
use nevermind_ml::boost::{uniform_weights, BStump, BoostConfig};
use nevermind_ml::calibrate::PlattScale;
use nevermind_ml::data::Dataset;
use nevermind_ml::metrics;
use nevermind_ml::rank::top_k_sharded;
use nevermind_ml::select::{score_features, FeatureScore, SelectConfig, SelectionCriterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Ticket-predictor hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// ATDS weekly capacity as a fraction of the ranked population. The
    /// paper's 20K against millions of lines is ≈0.5–1%; the default keeps
    /// that ratio at simulated scale.
    pub budget_fraction: f64,
    /// Boosting iterations for the final model (paper: 800 via CV).
    pub iterations: usize,
    /// Boosting iterations for each single-feature selection model.
    pub selection_iterations: usize,
    /// How many base (history + customer) features to keep.
    pub n_base: usize,
    /// How many quadratic features to keep.
    pub n_quadratic: usize,
    /// How many product features to keep.
    pub n_product: usize,
    /// Whether to use derived features at all (Fig. 7 ablates this).
    pub use_derived: bool,
    /// Row cap per window during feature selection (selection runs on a
    /// deterministic subsample for tractability over ~1.5k product
    /// features).
    pub selection_row_cap: usize,
    /// Stump threshold-search bins.
    pub n_bins: usize,
    /// Feature-encoder settings.
    pub encoder: EncoderConfig,
    /// Seed for the selection subsample.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            budget_fraction: 0.01,
            iterations: 300,
            selection_iterations: 8,
            n_base: 40,
            n_quadratic: 25,
            n_product: 25,
            use_derived: true,
            selection_row_cap: 25_000,
            n_bins: 64,
            encoder: EncoderConfig::default(),
            seed: 0xBEEF,
        }
    }
}

impl PredictorConfig {
    /// The absolute budget for a ranked population of `n` rows.
    pub fn budget(&self, n: usize) -> usize {
        ((n as f64) * self.budget_fraction).ceil().max(1.0) as usize
    }
}

/// One scored feature in the selection report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoredFeature {
    /// Feature name (encoder naming scheme).
    pub name: String,
    /// Table-3 class.
    pub class: FeatureClass,
    /// AP(N) of its single-feature model on the evaluation window.
    pub score: f64,
}

/// Everything the Fig. 4 histograms need, plus the final selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionReport {
    /// Scores of every base (history + customer) feature.
    pub base: Vec<ScoredFeature>,
    /// Scores of every quadratic feature.
    pub quadratic: Vec<ScoredFeature>,
    /// Scores of every product feature.
    pub product: Vec<ScoredFeature>,
    /// Selected base column indices.
    pub selected_base: Vec<usize>,
    /// Selected derived features.
    pub selected_derived: Vec<DerivedFeature>,
    /// The `N` used inside AP(N) during selection.
    pub selection_budget: usize,
}

impl SelectionReport {
    /// Total number of selected features.
    pub fn n_selected(&self) -> usize {
        self.selected_base.len() + self.selected_derived.len()
    }
}

/// A ranked population with labels, ready for precision@K evaluation.
#[derive(Debug, Clone)]
pub struct RankedPredictions {
    /// Row provenance.
    pub rows: Vec<RowKey>,
    /// Calibrated ticket probabilities.
    pub probabilities: Vec<f64>,
    /// Ground-truth labels (ticket within the horizon).
    pub labels: Vec<bool>,
}

impl RankedPredictions {
    fn new(rows: Vec<RowKey>, probabilities: Vec<f64>, labels: Vec<bool>) -> Self {
        Self { rows, probabilities, labels }
    }

    /// Builds a ranking from scores, stored in the `probabilities` field as
    /// given — how the weekly engine wraps its calibrated probabilities.
    pub fn from_scores(rows: Vec<RowKey>, scores: Vec<f64>, labels: Vec<bool>) -> Self {
        assert_eq!(rows.len(), scores.len(), "row/score mismatch");
        assert_eq!(rows.len(), labels.len(), "row/label mismatch");
        Self::new(rows, scores, labels)
    }

    /// Number of ranked rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The paper's "accuracy": precision within the top `n`.
    pub fn precision_at(&self, n: usize) -> f64 {
        metrics::precision_at_k(&self.probabilities, &self.labels, n)
    }

    /// True predictions within the top `n`.
    pub fn hits_at(&self, n: usize) -> usize {
        metrics::hits_at_k(&self.probabilities, &self.labels, n)
    }

    /// Precision at each cutoff (Fig. 6 / Fig. 7 curves).
    pub fn precision_curve(&self, cutoffs: &[usize]) -> Vec<(usize, f64)> {
        metrics::precision_curve(&self.probabilities, &self.labels, cutoffs)
    }

    /// The top `n` rows, best first, with probability and label.
    ///
    /// Uses partial selection (`O(rows + n log n)`) rather than a full sort:
    /// the weekly operational loop asks for ~1% of the population. The
    /// result is identical to taking the first `n` of a stable descending
    /// argsort — ties keep row order, `NaN` sorts last.
    pub fn top_rows(&self, n: usize) -> Vec<(RowKey, f64, bool)> {
        self.top_rows_sharded(n, 1)
    }

    /// [`Self::top_rows`] with the selection spread over `shards`
    /// `nevermind_obs::par` parts (`0` = every core; merge-based top-`B`).
    /// Bit-identical for any shard count — see
    /// `nevermind_ml::rank::top_k_sharded`.
    pub fn top_rows_sharded(&self, n: usize, shards: usize) -> Vec<(RowKey, f64, bool)> {
        top_k_sharded(&self.probabilities, n, shards)
            .into_iter()
            .map(|i| (self.rows[i], self.probabilities[i], self.labels[i]))
            .collect()
    }

    /// Rows in the top `n` whose label is `false` — the paper's "incorrect
    /// predictions" that Sec. 5.2 dissects.
    pub fn incorrect_in_top(&self, n: usize) -> Vec<RowKey> {
        self.top_rows(n).into_iter().filter(|(_, _, y)| !y).map(|(k, _, _)| k).collect()
    }
}

/// One feature's additive contribution to a prediction's margin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureContribution {
    /// Feature name (encoder naming scheme).
    pub name: String,
    /// The feature's value on this row (`NaN` = missing, zero contribution).
    pub value: f64,
    /// Sum of this feature's stump scores (positive pushes toward a
    /// predicted ticket).
    pub contribution: f64,
}

/// The fitted ticket predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TicketPredictor {
    model: BStump,
    calibration: PlattScale,
    selected_base: Vec<usize>,
    selected_derived: Vec<DerivedFeature>,
    encoder_config: EncoderConfig,
}

impl TicketPredictor {
    /// Fits the full paper pipeline on the given split.
    ///
    /// # Errors
    /// Returns [`PipelineError::Calibration`] when the selection-eval
    /// window yields no calibratable margins (empty window or a non-finite
    /// margin from corrupted measurements).
    pub fn fit(
        data: &ExperimentData,
        split: &SplitSpec,
        config: &PredictorConfig,
    ) -> Result<(Self, SelectionReport), PipelineError> {
        let _fit_span = nevermind_obs::span!("predictor/fit");
        let encoder = data.encoder(config.encoder.clone());
        let (base_train, base_eval) = {
            let _s = nevermind_obs::span!("encode_windows");
            (encoder.encode(&split.train_days), encoder.encode(&split.selection_eval_days))
        };

        // Deterministic selection subsamples. The *training* subsample keeps
        // every positive (they are <1% and single-feature models need them);
        // the *evaluation* subsample must stay uniform — AP(N) is a ranking
        // metric and enriching positives would distort exactly the head of
        // the ranking the criterion is supposed to measure.
        let train_sub =
            subsample_keep_positives(&base_train, config.selection_row_cap, config.seed);
        let eval_sub = subsample_uniform(&base_eval, config.selection_row_cap, config.seed ^ 1);
        let selection_budget = config.budget(eval_sub.data.len());

        let select_cfg =
            SelectConfig { model_iterations: config.selection_iterations, n_bins: config.n_bins };
        let criterion = SelectionCriterion::TopNAp { n: selection_budget };

        // --- base features ---
        let base_scores = {
            let _s = nevermind_obs::span!("select_base");
            score_features(&train_sub.data, &eval_sub.data, criterion, &select_cfg)
        };
        let selected_base = top_scores(&base_scores, config.n_base);

        // --- derived features ---
        let mut report_quadratic = Vec::new();
        let mut report_product = Vec::new();
        let mut selected_derived = Vec::new();
        if config.use_derived {
            let quads = all_quadratics(&base_train);
            let quad_scores = {
                let _s = nevermind_obs::span!("select_quadratic");
                score_derived(&train_sub, &eval_sub, &quads, criterion, &select_cfg)
            };
            for (f, s) in quads.iter().zip(&quad_scores) {
                report_quadratic.push(scored(&base_train, *f, *s));
            }
            selected_derived.extend(top_derived(&quads, &quad_scores, config.n_quadratic));

            let prods = all_products(&base_train);
            let prod_scores = {
                let _s = nevermind_obs::span!("select_product");
                score_derived(&train_sub, &eval_sub, &prods, criterion, &select_cfg)
            };
            for (f, s) in prods.iter().zip(&prod_scores) {
                report_product.push(scored(&base_train, *f, *s));
            }
            selected_derived.extend(top_derived(&prods, &prod_scores, config.n_product));
        }

        let report = SelectionReport {
            base: base_scores
                .iter()
                .map(|fs| ScoredFeature {
                    name: base_train.data.x.meta()[fs.feature].name.clone(),
                    class: base_train.classes[fs.feature],
                    score: fs.score,
                })
                .collect(),
            quadratic: report_quadratic,
            product: report_product,
            selected_base: selected_base.clone(),
            selected_derived: selected_derived.clone(),
            selection_budget,
        };

        // --- final model ---
        let model = {
            let _s = nevermind_obs::span!("boost_final");
            fit_assembled(&base_train, &selected_base, &selected_derived, config)
        };

        // Calibrate on the (unsubsampled) evaluation window.
        let calibration = {
            let _s = nevermind_obs::span!("calibrate");
            let plan = CompiledPredictor::new(&model, &selected_base, &selected_derived);
            PlattScale::fit(&plan.matrix_margins(&base_eval.data.x), &base_eval.data.y)?
        };
        nevermind_obs::counter_add!(
            "predictor/features_selected",
            selected_base.len() + selected_derived.len()
        );

        let predictor = Self {
            model,
            calibration,
            selected_base,
            selected_derived,
            encoder_config: config.encoder.clone(),
        };
        Ok((predictor, report))
    }

    /// Selects the boosting iteration count by k-fold cross-validation on
    /// the training window, scored by AP(budget) — the paper's procedure
    /// for fixing `T` ("the number of iterations is set to 800 based on
    /// cross-validation", footnote 4). Returns the winning candidate;
    /// pass it back through `config.iterations` before [`Self::fit`].
    ///
    /// Feature selection is run once on the full candidate space first, so
    /// the CV sees the same feature set the final model will use.
    ///
    /// # Errors
    /// Returns [`PipelineError`] when the preparatory fit fails (see
    /// [`TicketPredictor::fit`]).
    pub fn select_iterations_cv(
        data: &ExperimentData,
        split: &SplitSpec,
        config: &PredictorConfig,
        candidates: &[usize],
        k_folds: usize,
    ) -> Result<usize, PipelineError> {
        let (predictor, _) =
            Self::fit(data, split, &PredictorConfig { iterations: 1, ..config.clone() })?;
        let encoder = data.encoder(config.encoder.clone());
        let base_train = encoder.encode(&split.train_days);
        let assembled = predictor.assemble(&base_train);
        let boost_cfg = BoostConfig {
            iterations: 0, // overridden inside select_iterations
            n_bins: config.n_bins,
            smoothing: None,
            parallel: true,
        };
        Ok(nevermind_ml::cv::select_iterations(
            &assembled,
            candidates,
            k_folds,
            config.budget_fraction,
            &boost_cfg,
            config.seed ^ 0xCF,
        ))
    }

    /// Fits with a fixed base-only feature set chosen by an arbitrary
    /// Table-4 criterion — the Fig. 6 comparison ("for each feature
    /// selection method, the top 50 features are selected ... and a
    /// classifier is constructed using these 50 features").
    ///
    /// # Errors
    /// Returns [`PipelineError::Calibration`] when the selection-eval
    /// window yields no calibratable margins.
    pub fn fit_base_only(
        data: &ExperimentData,
        split: &SplitSpec,
        config: &PredictorConfig,
        criterion: SelectionCriterion,
        top_k: usize,
    ) -> Result<Self, PipelineError> {
        let encoder = data.encoder(config.encoder.clone());
        let base_train = encoder.encode(&split.train_days);
        let base_eval = encoder.encode(&split.selection_eval_days);
        let train_sub =
            subsample_keep_positives(&base_train, config.selection_row_cap, config.seed);
        let eval_sub = subsample_uniform(&base_eval, config.selection_row_cap, config.seed ^ 1);

        let select_cfg =
            SelectConfig { model_iterations: config.selection_iterations, n_bins: config.n_bins };
        let scores = score_features(&train_sub.data, &eval_sub.data, criterion, &select_cfg);
        let selected_base = top_scores(&scores, top_k);

        let model = fit_assembled(&base_train, &selected_base, &[], config);
        let margins =
            CompiledPredictor::new(&model, &selected_base, &[]).matrix_margins(&base_eval.data.x);
        let calibration = PlattScale::fit(&margins, &base_eval.data.y)?;
        Ok(Self {
            model,
            calibration,
            selected_base,
            selected_derived: Vec::new(),
            encoder_config: config.encoder.clone(),
        })
    }

    /// Checks a deserialized predictor's internal consistency, once,
    /// before it is used: selected base and derived columns lie inside the
    /// encoder's base space, every stump reads a column of the assembled
    /// space (whose width the model must record), and every threshold,
    /// stump score and Platt parameter is finite. A model written by
    /// [`Self::fit`] always passes; a tampered or truncated one fails here
    /// instead of panicking mid-ranking.
    ///
    /// # Errors
    /// Returns [`PipelineError::InvalidModel`] naming the first failed check.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let invalid = |detail: String| Err(PipelineError::InvalidModel { detail });
        let n_base = nevermind_features::BaseEncoder::base_meta().0.len();
        let derived_cols = self.selected_derived.iter().flat_map(|d| match *d {
            DerivedFeature::Quadratic { col } => [col, col],
            DerivedFeature::Product { a, b } => [a, b],
        });
        if let Some(c) =
            self.selected_base.iter().copied().chain(derived_cols).find(|&c| c >= n_base)
        {
            return invalid(format!(
                "selected column {c} is outside the {n_base}-column base space"
            ));
        }
        let width = self.selected_base.len() + self.selected_derived.len();
        if self.model.n_features() != width {
            return invalid(format!(
                "model records {} features but the selection assembles {width}",
                self.model.n_features()
            ));
        }
        for (i, s) in self.model.stumps().iter().enumerate() {
            if s.feature >= width {
                return invalid(format!("stump {i} reads feature {} of {width}", s.feature));
            }
            if !(s.threshold.is_finite() && s.s_le.is_finite() && s.s_gt.is_finite()) {
                return invalid(format!("stump {i} has a non-finite threshold or score"));
            }
        }
        if !(self.calibration.a.is_finite() && self.calibration.b.is_finite()) {
            return invalid("non-finite Platt calibration parameter".to_string());
        }
        Ok(())
    }

    /// Projects a base-encoded dataset onto the selected feature space
    /// (selected base columns followed by materialized derived columns) —
    /// the matrix the model was trained on.
    pub fn assemble(&self, base: &EncodedDataset) -> Dataset {
        assemble(base, &self.selected_base, &self.selected_derived)
    }

    /// Encodes and ranks the whole population at the given Saturdays.
    pub fn rank(&self, data: &ExperimentData, days: &[u32]) -> RankedPredictions {
        let encoder = data.encoder(self.encoder_config.clone());
        let base = encoder.encode(days);
        self.rank_encoded(&base)
    }

    /// Ranks an already base-encoded dataset: the compiled plan scores the
    /// base matrix directly, without assembling the selected space.
    pub fn rank_encoded(&self, base: &EncodedDataset) -> RankedPredictions {
        let _span = nevermind_obs::span!("predictor/rank");
        nevermind_obs::counter_add!("predictor/rows_ranked", base.rows.len());
        let plan = CompiledPredictor::new(&self.model, &self.selected_base, &self.selected_derived);
        let probabilities = self.calibration.probabilities(&plan.matrix_margins(&base.data.x));
        RankedPredictions::new(base.rows.clone(), probabilities, base.data.y.clone())
    }

    /// Explains one ranked row: per-feature margin contributions, strongest
    /// first. The BStump margin is a plain sum of stump scores, so grouping
    /// the scores by feature gives an exact additive decomposition — the
    /// operator-facing answer to "why is this line in the top 20K?".
    ///
    /// `assembled_row` must come from [`Self::assemble`]'s feature space.
    pub fn explain(&self, assembled_row: &[f32]) -> Vec<FeatureContribution> {
        let names = self.assembled_feature_names();
        let mut by_feature: Vec<f64> = vec![0.0; names.len()];
        for stump in self.model.stumps() {
            by_feature[stump.feature] += stump.score(assembled_row);
        }
        let mut out: Vec<FeatureContribution> = names
            .into_iter()
            .zip(by_feature)
            .zip(assembled_row)
            .filter(|((_, c), _)| *c != 0.0)
            .map(|((name, contribution), &value)| FeatureContribution {
                name,
                value: f64::from(value),
                contribution,
            })
            .collect();
        out.sort_by(|a, b| b.contribution.abs().total_cmp(&a.contribution.abs()));
        out
    }

    /// Names of the assembled feature space (selected base columns followed
    /// by derived columns), in column order.
    pub fn assembled_feature_names(&self) -> Vec<String> {
        let (meta, _) = nevermind_features::BaseEncoder::base_meta();
        let mut names: Vec<String> =
            self.selected_base.iter().map(|&c| meta[c].name.clone()).collect();
        names.extend(self.selected_derived.iter().map(|d| d.name(&meta)));
        names
    }

    /// The trained boosting model.
    pub fn model(&self) -> &BStump {
        &self.model
    }

    /// The calibration map.
    pub fn calibration(&self) -> &PlattScale {
        &self.calibration
    }

    /// Selected base column indices (into the encoder's base space).
    pub fn selected_base(&self) -> &[usize] {
        &self.selected_base
    }

    /// Selected derived features.
    pub fn selected_derived(&self) -> &[DerivedFeature] {
        &self.selected_derived
    }

    /// The encoder configuration the predictor was fitted with (the weekly
    /// scoring engine reuses it for its incremental encoder).
    pub fn encoder_config(&self) -> &EncoderConfig {
        &self.encoder_config
    }
}

/// The final BStump over the assembled feature space of `base` — the
/// model `BStump::fit(&assemble(base, cols, derived), ..)` trains — fed
/// one assembled column at a time, so no assembled matrix is built.
fn fit_assembled(
    base: &EncodedDataset,
    cols: &[usize],
    derived: &[DerivedFeature],
    config: &PredictorConfig,
) -> BStump {
    let boost_cfg = BoostConfig {
        iterations: config.iterations,
        n_bins: config.n_bins,
        smoothing: None,
        parallel: true,
    };
    let columns = AssembledColumns::new(base, cols, derived);
    let y = &base.data.y;
    BStump::fit_columns(columns.n_cols(), y, &uniform_weights(y.len()), &boost_cfg, |j, out| {
        columns.write(j, out)
    })
}

/// Deterministic row subsample that keeps every positive example (they are
/// rare and single-feature *training* needs them) and fills the remainder
/// with a seeded shuffle of the negatives.
fn subsample_keep_positives(ds: &EncodedDataset, cap: usize, seed: u64) -> EncodedDataset {
    if ds.data.len() <= cap {
        return ds.clone();
    }
    let positives: Vec<usize> = (0..ds.data.len()).filter(|&i| ds.data.y[i]).collect();
    let mut negatives: Vec<usize> = (0..ds.data.len()).filter(|&i| !ds.data.y[i]).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    negatives.shuffle(&mut rng);
    let room = cap.saturating_sub(positives.len());
    let mut rows: Vec<usize> = positives;
    rows.extend(negatives.into_iter().take(room));
    rows.sort_unstable();
    take_rows(ds, rows)
}

/// Deterministic *uniform* row subsample, preserving the natural class
/// balance — used for the selection-evaluation window, where AP(N) must be
/// computed under real prevalence.
fn subsample_uniform(ds: &EncodedDataset, cap: usize, seed: u64) -> EncodedDataset {
    if ds.data.len() <= cap {
        return ds.clone();
    }
    let mut rows: Vec<usize> = (0..ds.data.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rows.shuffle(&mut rng);
    rows.truncate(cap);
    rows.sort_unstable();
    take_rows(ds, rows)
}

fn take_rows(ds: &EncodedDataset, rows: Vec<usize>) -> EncodedDataset {
    EncodedDataset {
        data: ds.data.select_rows(&rows),
        rows: rows.iter().map(|&r| ds.rows[r]).collect(),
        classes: ds.classes.clone(),
    }
}

/// Top-`k` feature indices by score (positive scores only).
fn top_scores(scores: &[FeatureScore], k: usize) -> Vec<usize> {
    let mut ranked: Vec<&FeatureScore> = scores.iter().filter(|s| s.score > 0.0).collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.feature.cmp(&b.feature)));
    ranked.into_iter().take(k).map(|s| s.feature).collect()
}

fn top_derived(feats: &[DerivedFeature], scores: &[f64], k: usize) -> Vec<DerivedFeature> {
    let mut idx: Vec<usize> = (0..feats.len()).filter(|&i| scores[i] > 0.0).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx.into_iter().take(k).map(|i| feats[i]).collect()
}

fn scored(base: &EncodedDataset, f: DerivedFeature, score: f64) -> ScoredFeature {
    ScoredFeature { name: f.name(base.data.x.meta()), class: f.class(), score }
}

/// Scores derived features in bounded-memory chunks: materialize ≤256
/// columns at a time on the selection subsamples, score them, drop them.
fn score_derived(
    train_sub: &EncodedDataset,
    eval_sub: &EncodedDataset,
    feats: &[DerivedFeature],
    criterion: SelectionCriterion,
    select_cfg: &SelectConfig,
) -> Vec<f64> {
    const CHUNK: usize = 256;
    let mut scores = Vec::with_capacity(feats.len());
    for chunk in feats.chunks(CHUNK) {
        let train_d = assemble(train_sub, &[], chunk);
        let eval_d = assemble(eval_sub, &[], chunk);
        let chunk_scores = score_features(&train_d, &eval_d, criterion, select_cfg);
        scores.extend(chunk_scores.into_iter().map(|s| s.score));
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::SimConfig;

    fn quick_config() -> PredictorConfig {
        PredictorConfig {
            iterations: 60,
            selection_iterations: 4,
            n_base: 20,
            n_quadratic: 8,
            n_product: 8,
            selection_row_cap: 6_000,
            ..PredictorConfig::default()
        }
    }

    fn fitted() -> (ExperimentData, SplitSpec, TicketPredictor, SelectionReport) {
        let data = ExperimentData::simulate(SimConfig::small(77));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = quick_config();
        let (p, r) = TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
        (data, split, p, r)
    }

    #[test]
    fn fit_selects_features_and_beats_base_rate() {
        let (data, split, predictor, report) = fitted();
        assert!(report.n_selected() > 10, "selected {}", report.n_selected());
        assert!(!report.base.is_empty());
        assert!(!report.quadratic.is_empty());
        assert!(!report.product.is_empty());

        let ranking = predictor.rank(&data, &split.test_days);
        let budget = quick_config().budget(ranking.len());
        let p_at_budget = ranking.precision_at(budget);
        let base_rate =
            ranking.labels.iter().filter(|&&y| y).count() as f64 / ranking.labels.len() as f64;
        assert!(
            p_at_budget > 3.0 * base_rate,
            "precision@{budget} = {p_at_budget}, base rate {base_rate}"
        );
    }

    #[test]
    fn ranking_is_deterministic() {
        let (data, split, predictor, _) = fitted();
        let a = predictor.rank(&data, &split.test_days);
        let b = predictor.rank(&data, &split.test_days);
        assert_eq!(a.probabilities, b.probabilities);
        assert_eq!(a.top_rows(10), b.top_rows(10));
    }

    #[test]
    fn sharded_top_rows_match_serial() {
        let (data, split, predictor, _) = fitted();
        let ranking = predictor.rank(&data, &split.test_days);
        let serial = ranking.top_rows(50);
        for shards in [1usize, 2, 7, 16] {
            assert_eq!(serial, ranking.top_rows_sharded(50, shards), "{shards} shards");
        }
    }

    #[test]
    fn probabilities_are_calibrated_probabilities() {
        let (data, split, predictor, _) = fitted();
        let ranking = predictor.rank(&data, &split.test_days);
        assert!(ranking.probabilities.iter().all(|p| (0.0..=1.0).contains(p)));
        // Mean predicted probability should be within a factor of ~3 of the
        // realized rate (calibration was on an earlier window).
        let mean_p: f64 =
            ranking.probabilities.iter().sum::<f64>() / ranking.probabilities.len() as f64;
        let rate =
            ranking.labels.iter().filter(|&&y| y).count() as f64 / ranking.labels.len() as f64;
        assert!(mean_p < rate * 4.0 + 0.02 && mean_p > rate / 5.0, "mean {mean_p} vs rate {rate}");
    }

    #[test]
    fn incorrect_and_correct_partition_the_top() {
        let (data, split, predictor, _) = fitted();
        let ranking = predictor.rank(&data, &split.test_days);
        let n = 100;
        let inc = ranking.incorrect_in_top(n).len();
        assert_eq!(inc, n.min(ranking.len()) - ranking.hits_at(n));
    }

    #[test]
    fn validate_accepts_fitted_and_rejects_inconsistent_models() {
        let (_, _, predictor, _) = fitted();
        assert_eq!(predictor.validate(), Ok(()));
        let rejects = |edit: &dyn Fn(&mut TicketPredictor), needle: &str| {
            let mut p = predictor.clone();
            edit(&mut p);
            let err = p.validate().expect_err(needle).to_string();
            assert!(err.starts_with("invalid model: ") && err.contains(needle), "{err}");
        };
        rejects(&|p| p.selected_base[0] = 99_999, "selected column 99999");
        rejects(&|p| p.selected_derived.push(DerivedFeature::Product { a: 0, b: 5_000 }), "5000");
        rejects(
            &|p| p.selected_base.truncate(p.selected_base.len() - 1),
            "the selection assembles",
        );
        rejects(&|p| p.calibration.b = f64::INFINITY, "Platt");
        let json = serde_json::to_string(&predictor).expect("serialize");
        let at = json.find("\"feature\":").expect("a stump") + "\"feature\":".len();
        let digits = json[at..].find(|c: char| !c.is_ascii_digit()).expect("number ends");
        let tampered = format!("{}4096{}", &json[..at], &json[at + digits..]);
        let p: TicketPredictor = serde_json::from_str(&tampered).expect("still parses");
        assert!(p.validate().is_err_and(|e| e.to_string().contains("reads feature 4096")));
    }

    #[test]
    fn serde_roundtrip_preserves_ranking() {
        let (data, split, predictor, _) = fitted();
        let json = serde_json::to_string(&predictor).expect("serialize");
        let back: TicketPredictor = serde_json::from_str(&json).expect("deserialize");
        let a = predictor.rank(&data, &split.test_days);
        let b = back.rank(&data, &split.test_days);
        assert_eq!(a.probabilities, b.probabilities);
    }

    #[test]
    fn budget_math() {
        let cfg = PredictorConfig { budget_fraction: 0.01, ..PredictorConfig::default() };
        assert_eq!(cfg.budget(20_000), 200);
        assert_eq!(cfg.budget(50), 1);
    }

    #[test]
    fn base_only_fit_works_for_all_criteria() {
        let data = ExperimentData::simulate(SimConfig::small(78));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let mut cfg = quick_config();
        cfg.iterations = 30;
        for criterion in [
            SelectionCriterion::TopNAp { n: 100 },
            SelectionCriterion::Auc,
            SelectionCriterion::AveragePrecision,
            SelectionCriterion::Pca { components: 5 },
            SelectionCriterion::GainRatio { bins: 16 },
        ] {
            let p = TicketPredictor::fit_base_only(&data, &split, &cfg, criterion, 15)
                .expect("well-formed training data");
            let ranking = p.rank(&data, &split.test_days);
            assert_eq!(ranking.len(), data.config.n_lines * split.test_days.len());
            assert_eq!(p.selected_base().len(), 15);
            assert!(p.selected_derived().is_empty());
        }
    }

    #[test]
    fn explanations_decompose_the_margin_exactly() {
        let (data, split, predictor, _) = fitted();
        let encoder = data.encoder(nevermind_features::encode::EncoderConfig::default());
        let base = encoder.encode(&[split.test_days[0]]);
        let assembled = predictor.assemble(&base);
        for r in (0..assembled.len()).step_by(assembled.len() / 10 + 1) {
            let row = assembled.x.row(r);
            let contributions = predictor.explain(row);
            let total: f64 = contributions.iter().map(|c| c.contribution).sum();
            let margin = predictor.model().margin(row);
            assert!((total - margin).abs() < 1e-9, "row {r}: {total} vs {margin}");
            // Sorted by |contribution| descending.
            for w in contributions.windows(2) {
                assert!(w[0].contribution.abs() >= w[1].contribution.abs());
            }
        }
        // Feature names align with the assembled space.
        assert_eq!(predictor.assembled_feature_names().len(), assembled.x.n_cols());
    }

    #[test]
    fn cv_iteration_selection_prefers_nontrivial_depth() {
        let data = ExperimentData::simulate(SimConfig::small(80));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let mut cfg = quick_config();
        cfg.iterations = 40;
        let best = TicketPredictor::select_iterations_cv(&data, &split, &cfg, &[1, 60], 3)
            .expect("well-formed training data");
        // A single-stump model ranks by one feature only and cannot cover
        // the multi-metric signal; CV must pick the deeper candidate.
        assert_eq!(best, 60);
    }

    #[test]
    fn subsample_keeps_positives() {
        let data = ExperimentData::simulate(SimConfig::small(79));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let encoder = data.encoder(EncoderConfig::default());
        let base = encoder.encode(&split.train_days);
        let n_pos = base.data.n_positive();
        let sub = subsample_keep_positives(&base, n_pos + 50, 3);
        assert_eq!(sub.data.len(), n_pos + 50);
        assert_eq!(sub.data.n_positive(), n_pos, "all positives retained");
    }
}
