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
//! Training encodes only what each step reads. Selection encodes just its
//! two subsamples' keys, lane-major (the training window's labels, which
//! pick its subsample, come from the ticket index alone), and writes each
//! candidate's column from one or two lanes into the column-fed
//! `nevermind_ml::select::score_columns`. The final fit encodes the
//! training window lane-major for only the base columns its feature space
//! reads, and `nevermind_features::encode::AssembledLanes` writes one
//! assembled column at a time into the column-fed `BStump::fit_columns`,
//! freeing each lane after its last reader. Every population score —
//! ranking, and the margins calibration fits on — goes through the one
//! compiled plan of [`crate::scoring`], which gathers the used columns
//! straight from the base encoding: no assembled matrix is built to rank.
//!
//! The two windows are never resident together: the whole evaluation
//! window is encoded for step 5 only after the final fit has released the
//! training window's lanes.

use crate::error::PipelineError;
use crate::pipeline::{ExperimentData, SplitSpec};
use crate::scoring::CompiledPredictor;
use nevermind_features::encode::{
    all_products, all_quadratics, assemble, AssembledLanes, BaseEncoder, EncodedDataset,
    EncoderConfig, RowKey,
};
use nevermind_features::registry::{DerivedFeature, FeatureClass};
use nevermind_ml::boost::{uniform_weights, BStump, BoostConfig};
use nevermind_ml::calibrate::PlattScale;
use nevermind_ml::data::Dataset;
use nevermind_ml::metrics;
use nevermind_ml::rank::top_k_sharded;
use nevermind_ml::select::{
    score_columns, score_features, FeatureScore, SelectConfig, SelectionCriterion,
};
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
        let keys = encoder.keys(&split.train_days);
        // The selection subsamples live only while `select` runs, so they
        // are gone before the final fit, where training's memory peaks.
        let report = {
            let (train_sub, eval_sub) = {
                let _s = nevermind_obs::span!("encode_windows");
                let (train, eval) = selection_keys(&encoder, &keys, split, config);
                (Subsample::encode(&encoder, &train), Subsample::encode(&encoder, &eval))
            };
            select(&train_sub, &eval_sub, config)
        };
        let (selected_base, selected_derived) =
            (report.selected_base.clone(), report.selected_derived.clone());

        let model = fit_lanes(&encoder, keys, &selected_base, &selected_derived, config);

        let calibration = calibrate(&encoder, split, &model, &selected_base, &selected_derived)?;
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
        let keys = encoder.keys(&split.train_days);
        let (train, eval) = selection_keys(&encoder, &keys, split, config);
        let select_cfg =
            SelectConfig { model_iterations: config.selection_iterations, n_bins: config.n_bins };
        let scores = score_features(
            &encoder.encode_rows(&train).data,
            &encoder.encode_rows(&eval).data,
            criterion,
            &select_cfg,
        );
        let selected_base = top_scores(&scores, top_k);

        let model = fit_lanes(&encoder, keys, &selected_base, &[], config);
        let calibration = calibrate(&encoder, split, &model, &selected_base, &[])?;
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
        let derived_cols = self.selected_derived.iter().flat_map(|d| d.operands());
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

/// The final BStump over the assembled feature space of the rows `keys` —
/// the model `BStump::fit(&assemble(&encoder.encode_rows(keys), cols,
/// derived), ..)` trains. Only the base columns the space reads are
/// encoded, one lane each, and each lane is freed once the last assembled
/// column that reads it is coded, so no base or assembled matrix is built.
/// The keys are dropped once encoded.
fn fit_lanes(
    encoder: &BaseEncoder,
    keys: Vec<RowKey>,
    cols: &[usize],
    derived: &[DerivedFeature],
    config: &PredictorConfig,
) -> BStump {
    let (lanes, y) = {
        let _s = nevermind_obs::span!("encode_windows");
        encoder.encode_lanes(&keys, &AssembledLanes::reads(cols, derived))
    };
    drop(keys);
    let _s = nevermind_obs::span!("boost_final");
    let boost_cfg = BoostConfig {
        iterations: config.iterations,
        n_bins: config.n_bins,
        smoothing: None,
        parallel: true,
    };
    let mut columns = AssembledLanes::new(cols, derived, lanes);
    BStump::fit_columns(columns.n_cols(), &y, &uniform_weights(y.len()), &boost_cfg, |j, out| {
        columns.write(j, out)
    })
}

/// The keys of the two deterministic selection subsamples. The *training*
/// one keeps every positive of the rows `keys` (they are <1% and
/// single-feature models need them), picked by labels read from the
/// ticket index alone ([`subsample_keep_positives`]). The *evaluation* one
/// must stay uniform ([`subsample_uniform`]): AP(N) is a ranking metric,
/// and enriching positives would distort exactly the head of the ranking
/// the criterion is supposed to measure. A row depends on its key alone,
/// so the keys encode to those rows of the whole windows.
fn selection_keys(
    encoder: &BaseEncoder,
    keys: &[RowKey],
    split: &SplitSpec,
    config: &PredictorConfig,
) -> (Vec<RowKey>, Vec<RowKey>) {
    let pick = |keys: &[RowKey], rows: Vec<usize>| rows.into_iter().map(|r| keys[r]).collect();
    let cap = config.selection_row_cap;
    let train = subsample_keep_positives(&encoder.labels(keys), cap, config.seed);
    let eval_keys = encoder.keys(&split.selection_eval_days);
    let eval = subsample_uniform(eval_keys.len(), cap, config.seed ^ 1);
    (pick(keys, train), pick(&eval_keys, eval))
}

/// Step 5 of the recipe: Platt scaling of `model`'s margins over the whole
/// (unsubsampled) evaluation window, encoded here, after the final fit,
/// so that it is never resident beside the training window.
fn calibrate(
    encoder: &BaseEncoder,
    split: &SplitSpec,
    model: &BStump,
    cols: &[usize],
    derived: &[DerivedFeature],
) -> Result<PlattScale, PipelineError> {
    let base_eval = {
        let _s = nevermind_obs::span!("encode_windows");
        encoder.encode(&split.selection_eval_days)
    };
    let _s = nevermind_obs::span!("calibrate");
    let margins = CompiledPredictor::new(model, cols, derived).matrix_margins(&base_eval.data.x);
    Ok(PlattScale::fit(&margins, &base_eval.data.y)?)
}

/// Steps 2–3 of the recipe: scores every base, quadratic and product
/// candidate by the AP(N) of its single-feature model and keeps the best
/// of each class, over the two windows' subsamples ([`selection_keys`]).
/// Every candidate's column is written from the subsamples' lanes into the
/// column-fed scorer.
fn select(train: &Subsample, eval: &Subsample, config: &PredictorConfig) -> SelectionReport {
    let (meta, classes) = BaseEncoder::base_meta();
    let selection_budget = config.budget(eval.y.len());
    let select_cfg =
        SelectConfig { model_iterations: config.selection_iterations, n_bins: config.n_bins };
    let criterion = SelectionCriterion::TopNAp { n: selection_budget };
    let score = |n: usize, write: &(dyn Fn(&Subsample, usize, &mut [f32]) + Sync)| {
        let write_train = |c: usize, out: &mut [f32]| write(train, c, out);
        let write_eval = |c: usize, out: &mut [f32]| write(eval, c, out);
        score_columns(n, &train.y, &eval.y, criterion, &select_cfg, write_train, write_eval)
    };

    // --- base features ---
    let base_scores = {
        let _s = nevermind_obs::span!("select_base");
        score(meta.len(), &|sub, c, out| out.copy_from_slice(&sub.lanes[c]))
    };
    let selected_base = top_scores(&base_scores, config.n_base);

    // --- derived features ---
    let mut report_quadratic = Vec::new();
    let mut report_product = Vec::new();
    let mut selected_derived = Vec::new();
    let mut select_derived = |feats: &[DerivedFeature], k: usize, report: &mut Vec<_>| {
        let scores: Vec<f64> =
            score(feats.len(), &|sub, j, out| feats[j].write_column(|c| &sub.lanes[c], out))
                .into_iter()
                .map(|s| s.score)
                .collect();
        report.extend(feats.iter().zip(&scores).map(|(f, &score)| ScoredFeature {
            name: f.name(&meta),
            class: f.class(),
            score,
        }));
        selected_derived.extend(top_derived(feats, &scores, k));
    };
    let quads = all_quadratics(&meta);
    {
        let _s = nevermind_obs::span!("select_quadratic");
        select_derived(&quads, config.n_quadratic, &mut report_quadratic);
    }
    let prods = all_products(&meta);
    {
        let _s = nevermind_obs::span!("select_product");
        select_derived(&prods, config.n_product, &mut report_product);
    }

    SelectionReport {
        base: base_scores
            .iter()
            .map(|fs| ScoredFeature {
                name: meta[fs.feature].name.clone(),
                class: classes[fs.feature],
                score: fs.score,
            })
            .collect(),
        quadratic: report_quadratic,
        product: report_product,
        selected_base,
        selected_derived,
        selection_budget,
    }
}

/// A selection subsample as lane-major base columns, so that writing a
/// candidate's column reads one or two contiguous lanes.
struct Subsample {
    /// Base column `c` over the subsample's rows.
    lanes: Vec<Vec<f32>>,
    /// The rows' labels.
    y: Vec<bool>,
}

impl Subsample {
    /// Every base column of the rows `keys`.
    fn encode(encoder: &BaseEncoder, keys: &[RowKey]) -> Self {
        let cols: Vec<usize> = (0..BaseEncoder::base_meta().0.len()).collect();
        let (lanes, y) = encoder.encode_lanes(keys, &cols);
        Self { lanes, y }
    }
}

/// Deterministic row subsample that keeps every positive example (they are
/// rare and single-feature *training* needs them) and fills the remainder
/// with a seeded shuffle of the negatives. Returns the kept rows of the
/// labels `y`, ascending.
fn subsample_keep_positives(y: &[bool], cap: usize, seed: u64) -> Vec<usize> {
    if y.len() <= cap {
        return (0..y.len()).collect();
    }
    let positives: Vec<usize> = (0..y.len()).filter(|&i| y[i]).collect();
    let mut negatives: Vec<usize> = (0..y.len()).filter(|&i| !y[i]).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    negatives.shuffle(&mut rng);
    let room = cap.saturating_sub(positives.len());
    let mut rows: Vec<usize> = positives;
    rows.extend(negatives.into_iter().take(room));
    rows.sort_unstable();
    rows
}

/// Deterministic *uniform* row subsample of `n` rows, preserving the
/// natural class balance — used for the selection-evaluation window,
/// where AP(N) must be computed under real prevalence. Returns the kept
/// rows, ascending.
fn subsample_uniform(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n).collect();
    if n <= cap {
        return rows;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rows.shuffle(&mut rng);
    rows.truncate(cap);
    rows.sort_unstable();
    rows
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

    /// A selection subsample gathered from rows of a row-major window.
    fn gather(data: &Dataset, rows: &[usize]) -> Subsample {
        let lanes = (0..data.x.n_cols())
            .map(|c| rows.iter().map(|&r| data.x.get(r, c)).collect())
            .collect();
        Subsample { lanes, y: rows.iter().map(|&r| data.y[r]).collect() }
    }

    /// The fit labels the training window from the ticket index, encodes
    /// only its selection subsamples' keys, trains on lanes of the base
    /// columns its model reads, and encodes the evaluation window after
    /// the final fit. The same recipe rebuilt from public calls — both
    /// windows encoded whole and row-major up front, selection on
    /// subsamples gathered from their rows, `BStump::fit` on the assembled
    /// matrix and Platt scaling on the whole evaluation window — must give
    /// the same selection report, model bytes and calibration bits.
    #[test]
    fn fit_matches_encoding_both_windows_up_front() {
        let (data, split, predictor, report) = fitted();
        let cfg = quick_config();
        let encoder = data.encoder(cfg.encoder.clone());
        let base_train = encoder.encode(&split.train_days);
        let base_eval = encoder.encode(&split.selection_eval_days);
        assert_eq!(encoder.labels(&base_train.rows), base_train.data.y);
        let train_rows =
            subsample_keep_positives(&base_train.data.y, cfg.selection_row_cap, cfg.seed);
        let rows = subsample_uniform(base_eval.data.len(), cfg.selection_row_cap, cfg.seed ^ 1);
        assert!(train_rows.len() < base_train.data.len(), "the subsample must drop rows");
        assert!(rows.len() < base_eval.data.len(), "the subsample must drop rows");

        let want =
            select(&gather(&base_train.data, &train_rows), &gather(&base_eval.data, &rows), &cfg);
        assert_eq!(report.selected_base, want.selected_base);
        assert_eq!(report.selected_derived, want.selected_derived);
        assert_eq!(report.selection_budget, want.selection_budget);
        let scores = |r: &SelectionReport| -> Vec<(String, u64)> {
            r.base
                .iter()
                .chain(&r.quadratic)
                .chain(&r.product)
                .map(|f| (f.name.clone(), f.score.to_bits()))
                .collect()
        };
        assert_eq!(scores(&report), scores(&want));

        let assembled = assemble(&base_train, &want.selected_base, &want.selected_derived);
        let boost_cfg = BoostConfig {
            iterations: cfg.iterations,
            n_bins: cfg.n_bins,
            smoothing: None,
            parallel: true,
        };
        let json = |m: &BStump| serde_json::to_string(m).expect("model serializes");
        assert_eq!(json(predictor.model()), json(&BStump::fit(&assembled, &boost_cfg)));

        let margins = predictor.model().margins(&predictor.assemble(&base_eval).x);
        let platt = PlattScale::fit(&margins, &base_eval.data.y).expect("calibratable window");
        let bits = |p: &PlattScale| (p.a.to_bits(), p.b.to_bits());
        assert_eq!(bits(predictor.calibration()), bits(&platt));
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

    /// Every column selection writes from a lane-major subsample — each
    /// base column, and each quadratic and product candidate — equals,
    /// bit for bit, the matching column of `assemble` over the same rows
    /// of the whole row-major window, and so do the labels.
    #[test]
    fn subsample_columns_are_the_assembled_columns() {
        let data = ExperimentData::simulate(SimConfig::small(79));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let encoder = data.encoder(EncoderConfig::default());
        let base = encoder.encode(&split.train_days);
        let rows = subsample_keep_positives(&base.data.y, 700, 5);
        let keys: Vec<RowKey> = rows.iter().map(|&r| base.rows[r]).collect();
        let sub = Subsample::encode(&encoder, &keys);
        let copy = EncodedDataset {
            data: base.data.select_rows(&rows),
            rows: rows.iter().map(|&r| base.rows[r]).collect(),
            classes: base.classes.clone(),
        };
        assert_eq!(sub.y, copy.data.y);
        let bits =
            |column: &mut dyn Iterator<Item = f32>| column.map(f32::to_bits).collect::<Vec<_>>();
        let all_base: Vec<usize> = (0..base.data.x.n_cols()).collect();
        let assembled = assemble(&copy, &all_base, &[]);
        for c in all_base {
            let written = bits(&mut sub.lanes[c].iter().copied());
            assert_eq!(written, bits(&mut assembled.x.column(c)), "base column {c}");
        }
        let mut derived = all_quadratics(base.data.x.meta());
        derived.extend(all_products(base.data.x.meta()));
        let assembled = assemble(&copy, &[], &derived);
        let mut out = vec![0.0f32; rows.len()];
        for (j, &f) in derived.iter().enumerate() {
            f.write_column(|c| &sub.lanes[c], &mut out);
            let written = bits(&mut out.iter().copied());
            assert_eq!(written, bits(&mut assembled.x.column(j)), "{f:?}");
        }
        let holes = sub.lanes.iter().flatten().filter(|v| v.is_nan()).count();
        assert!(holes > 0, "the base columns have missing values");
    }

    #[test]
    fn subsample_keeps_positives() {
        let data = ExperimentData::simulate(SimConfig::small(79));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let encoder = data.encoder(EncoderConfig::default());
        let base = encoder.encode(&split.train_days);
        let n_pos = base.data.n_positive();
        let rows = subsample_keep_positives(&base.data.y, n_pos + 50, 3);
        assert_eq!(rows.len(), n_pos + 50);
        let kept_positives = rows.iter().filter(|&&r| base.data.y[r]).count();
        assert_eq!(kept_positives, n_pos, "all positives retained");
    }
}
