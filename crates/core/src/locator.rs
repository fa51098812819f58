//! The trouble locator (Sec. 6): ranking the 52 dispositions for a
//! dispatched technician.
//!
//! Three rankers are implemented, exactly as compared in the paper:
//!
//! * **basic** — the simple experience model: dispositions ordered by their
//!   historical frequency (prior probability);
//! * **flat** — a one-vs-rest BStump per disposition, logistic-calibrated,
//!   ranked by `P(C_ij | x)`;
//! * **combined** — Eq. 2: for each disposition, a logistic regression
//!   fuses the disposition classifier's score with its parent major
//!   location classifier's score, exploiting the HN/F2/F1/DS hierarchy so
//!   rare dispositions borrow strength from their location.
//!
//! Every one-vs-rest model trains on the same assembled matrix, and only
//! its labels differ. Binning reads no labels, so a fit sorts each column
//! of that matrix once: all full models train on the one binning, and each
//! out-of-fold refit reads its rows' binning off the same sort. The models
//! are independent, so each one (its full fit and its refits) is one task
//! of a fan-out over every core, and no fit spreads its rounds.

use crate::error::PipelineError;
use crate::pipeline::ExperimentData;
use nevermind_dslsim::dispatch::DispositionNote;
use nevermind_dslsim::disposition::{DispositionId, MajorLocation, N_DISPOSITIONS};
use nevermind_dslsim::LineId;
use nevermind_features::encode::{all_quadratics, EncodedDataset, EncoderConfig, RowKey};
use nevermind_features::registry::DerivedFeature;
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::calibrate::{CalibrateError, PlattScale};
use nevermind_ml::cv::k_folds;
use nevermind_ml::data::{Dataset, FeatureMatrix};
use nevermind_ml::logistic::{LogisticModel, LogisticRegression};
use nevermind_ml::stump::{BinnedDataset, SortedColumns};
use serde::{Deserialize, Serialize};

/// Trouble-locator hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocatorConfig {
    /// Boosting iterations per one-vs-rest model (paper: 200 via CV).
    pub iterations: usize,
    /// Minimum training examples for a disposition to get its own model
    /// (paper: dispositions appearing ≥ 20 times).
    pub min_examples: usize,
    /// Stump threshold-search bins.
    pub n_bins: usize,
    /// Include quadratic derived features ("all the line features presented
    /// in Table 3").
    pub include_quadratics: bool,
    /// Feature-encoder settings.
    pub encoder: EncoderConfig,
}

impl Default for LocatorConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            min_examples: 20,
            n_bins: 64,
            include_quadratics: true,
            encoder: EncoderConfig::default(),
        }
    }
}

/// One labelled dispatch: the line, the Saturday whose measurements the
/// technician would have had, and the recorded disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchExample {
    /// The dispatched line.
    pub line: LineId,
    /// The most recent test Saturday at or before the dispatch.
    pub day: u32,
    /// The technician's recorded disposition (noisy ground truth).
    pub disposition: DispositionId,
}

/// Extracts labelled dispatch examples from disposition notes whose day
/// falls in `[from, to)`. Notes without a disposition (no trouble found)
/// are skipped, as are dispatches too early to have a preceding Saturday.
pub fn collect_dispatch_examples(
    notes: &[DispositionNote],
    from: u32,
    to: u32,
) -> Vec<DispatchExample> {
    notes
        .iter()
        .filter(|n| n.day >= from && n.day < to)
        .filter_map(|n| {
            let disposition = n.disposition?;
            let day = saturday_at_or_before(n.day)?;
            Some(DispatchExample { line: n.line, day, disposition })
        })
        .collect()
}

/// The most recent Saturday at or before `day` (`None` if none exists yet).
pub fn saturday_at_or_before(day: u32) -> Option<u32> {
    let r = day % 7;
    let sat = if r == 6 { day } else { day.checked_sub(r + 1)? };
    Some(sat)
}

/// A per-disposition posterior, ready to be ranked.
#[derive(Debug, Clone, Copy)]
pub struct DispositionScore {
    /// The disposition.
    pub disposition: DispositionId,
    /// Posterior probability (model or prior fallback).
    pub probability: f64,
}

/// A fitted trouble locator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TroubleLocator {
    /// Dispositions with enough examples to carry their own model.
    modeled: Vec<DispositionId>,
    flat_models: Vec<BStump>,
    flat_cal: Vec<PlattScale>,
    location_models: Vec<BStump>,
    /// Eq.-2 fusion per modeled disposition.
    combine: Vec<LogisticModel>,
    /// Training frequency per disposition (basic ranks + fallback scores).
    priors: Vec<f64>,
    selected_derived: Vec<DerivedFeature>,
    encoder_config: EncoderConfig,
    config: LocatorConfig,
}

impl TroubleLocator {
    /// Fits flat and combined models on dispatches in `[from, to)`.
    ///
    /// # Errors
    /// Returns [`PipelineError::NoTrainingExamples`] when the window holds
    /// no usable dispatch examples, or [`PipelineError::Calibration`] when
    /// a per-disposition calibration fit is rejected or a location model's
    /// out-of-fold margin is not finite.
    pub fn fit(
        data: &ExperimentData,
        from: u32,
        to: u32,
        config: &LocatorConfig,
    ) -> Result<Self, PipelineError> {
        Self::fit_in_parts(data, from, to, config, 0)
    }

    /// [`Self::fit`] with its models spread over `threads`
    /// [`nevermind_obs::par`] parts (`0` = every core); the locator is the
    /// same at any part count.
    fn fit_in_parts(
        data: &ExperimentData,
        from: u32,
        to: u32,
        config: &LocatorConfig,
        threads: usize,
    ) -> Result<Self, PipelineError> {
        let _span = nevermind_obs::span!("locator/fit");
        let examples = collect_dispatch_examples(&data.output.notes, from, to);
        if examples.is_empty() {
            return Err(PipelineError::NoTrainingExamples { model: "trouble locator" });
        }

        let encoder = data.encoder(config.encoder.clone());
        let keys: Vec<RowKey> =
            examples.iter().map(|e| RowKey { line: e.line, day: e.day }).collect();
        let base = encoder.encode_rows(&keys);
        let selected_derived: Vec<DerivedFeature> =
            if config.include_quadratics { all_quadratics(&base) } else { Vec::new() };
        let assembled = assemble(&base, &selected_derived);

        // Priors = training frequency.
        let mut priors = vec![0f64; N_DISPOSITIONS];
        for e in &examples {
            priors[e.disposition.0 as usize] += 1.0;
        }
        let total = examples.len() as f64;

        // Every model's fits run on one core each (the fan-out is across
        // models below), so no boosting round starts a thread.
        let boost_cfg = BoostConfig {
            iterations: config.iterations,
            n_bins: config.n_bins,
            smoothing: None,
            parallel: false,
        };
        // Binning reads no labels, so every fit below bins off one sort of
        // the assembled matrix: the full fits share its full binning, and
        // each out-of-fold refit filters the sort to its training rows.
        let sorted = SortedColumns::new(&assembled.x);
        let binned = sorted.binned(config.n_bins);

        // One-vs-rest flat models for modeled dispositions, then one per
        // major location (always enough data: four classes). Calibration
        // (and the Eq.-2 fusion below) must NOT see training margins — a
        // boosted model separates its own training set almost perfectly, so
        // Platt fitted in-sample turns every rare-class model into an
        // overconfident 0-or-1 oracle and cross-class ranking collapses.
        // Out-of-fold margins give honest score distributions.
        let modeled: Vec<DispositionId> = (0..N_DISPOSITIONS as u8)
            .map(DispositionId)
            .filter(|d| priors[d.0 as usize] >= config.min_examples as f64)
            .collect();
        // Each model's labels and fold seed.
        let tasks: Vec<(Vec<bool>, u64)> = modeled
            .iter()
            .map(|&d| {
                let y = examples.iter().map(|e| e.disposition == d).collect();
                (y, 0xD15_0000 + d.0 as u64)
            })
            .chain(MajorLocation::ALL.into_iter().map(|loc| {
                let y = examples.iter().map(|e| e.disposition.location() == loc).collect();
                (y, 0x10C_0000 + loc as u64)
            }))
            .collect();
        // One task per model (its full fit and its out-of-fold refits),
        // spread over `threads` parts; the results come back in task order.
        let mut fits = nevermind_obs::par::map(tasks.len(), threads, |range| {
            tasks[range]
                .iter()
                .map(|(y, seed)| {
                    fit_with_oof_margins(&assembled.x, &sorted, &binned, y, &boost_cfg, *seed)
                })
                .collect::<Vec<_>>()
        })
        .concat();

        let location_fits = fits.split_off(modeled.len());
        let mut flat_models = Vec::with_capacity(modeled.len());
        let mut flat_cal = Vec::with_capacity(modeled.len());
        let mut flat_oof = Vec::with_capacity(modeled.len());
        for ((model, oof), (y, _)) in fits.into_iter().zip(&tasks) {
            flat_cal.push(PlattScale::fit(&oof, y)?);
            flat_models.push(model);
            flat_oof.push(oof);
        }
        // The location models' out-of-fold margins feed only the Eq.-2
        // fusion, so they get no Platt scale, but a non-finite one is still
        // a calibration error.
        let mut location_models = Vec::with_capacity(4);
        let mut location_oof = Vec::with_capacity(4);
        for (model, oof) in location_fits {
            if let Some(index) = oof.iter().position(|m| !m.is_finite()) {
                return Err(CalibrateError::NonFiniteMargin { index }.into());
            }
            location_models.push(model);
            location_oof.push(oof);
        }

        // Eq. 2: logistic fusion of (disposition margin, location margin),
        // fitted on the out-of-fold margins.
        let mut combine = Vec::with_capacity(modeled.len());
        for ((&d, oof), (y, _)) in modeled.iter().zip(&flat_oof).zip(&tasks) {
            let loc_idx = location_index(d.location());
            let x: Vec<Vec<f64>> =
                oof.iter().zip(&location_oof[loc_idx]).map(|(&a, &b)| vec![a, b]).collect();
            combine.push(LogisticRegression::default().fit(&x, y));
        }

        for p in priors.iter_mut() {
            *p /= total;
        }

        Ok(Self {
            modeled,
            flat_models,
            flat_cal,
            location_models,
            combine,
            priors,
            selected_derived,
            encoder_config: config.encoder.clone(),
            config: config.clone(),
        })
    }

    /// Dispositions that carry their own model.
    pub fn modeled_dispositions(&self) -> &[DispositionId] {
        &self.modeled
    }

    /// Training prevalence of each disposition.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// The basic (experience-model) ranking: dispositions by descending
    /// training frequency, ties by table order.
    pub fn basic_ranking(&self) -> Vec<DispositionId> {
        let mut ids: Vec<usize> = (0..N_DISPOSITIONS).collect();
        ids.sort_by(|&a, &b| self.priors[b].total_cmp(&self.priors[a]).then(a.cmp(&b)));
        ids.into_iter().map(|i| DispositionId(i as u8)).collect()
    }

    /// Encodes dispatch examples into the locator's feature space.
    pub fn encode_examples(&self, data: &ExperimentData, examples: &[DispatchExample]) -> Dataset {
        let encoder = data.encoder(self.encoder_config.clone());
        let keys: Vec<RowKey> =
            examples.iter().map(|e| RowKey { line: e.line, day: e.day }).collect();
        let base = encoder.encode_rows(&keys);
        assemble(&base, &self.selected_derived)
    }

    /// Flat-model posterior ranking for one assembled feature row,
    /// descending. Unmodeled dispositions fall back to their prior rate.
    pub fn rank_flat(&self, row: &[f32]) -> Vec<DispositionScore> {
        let _span = nevermind_obs::span!("locator/rank_flat");
        nevermind_obs::counter_add!("locator/inferences", 1);
        let mut scores = self.prior_scores();
        for (mi, &d) in self.modeled.iter().enumerate() {
            let margin = self.flat_models[mi].margin(row);
            scores[d.0 as usize].probability = self.flat_cal[mi].probability(margin);
        }
        sort_scores(scores)
    }

    /// Combined-model (Eq. 2) posterior ranking for one assembled row.
    pub fn rank_combined(&self, row: &[f32]) -> Vec<DispositionScore> {
        self.rank_combined_traced(row, None)
    }

    /// [`Self::rank_combined`] with decision provenance: while tracing is
    /// enabled, emits one `"locate"` event per modeled disposition with
    /// the flat-vs-combined posterior terms (flat margin and posterior,
    /// location margin, fused posterior), keyed by `provenance`'s
    /// `(line, day)` when given. The returned ranking is bit-identical to
    /// [`Self::rank_combined`]; with tracing disabled the extra cost is
    /// one relaxed atomic load.
    pub fn rank_combined_traced(
        &self,
        row: &[f32],
        provenance: Option<(u32, u32)>,
    ) -> Vec<DispositionScore> {
        let _span = nevermind_obs::span!("locator/rank_combined");
        nevermind_obs::counter_add!("locator/inferences", 1);
        let tracing = nevermind_obs::trace::enabled();
        let mut scores = self.prior_scores();
        let loc_margins: Vec<f64> = self.location_models.iter().map(|m| m.margin(row)).collect();
        for (mi, &d) in self.modeled.iter().enumerate() {
            let flat_margin = self.flat_models[mi].margin(row);
            let loc_margin = loc_margins[location_index(d.location())];
            let combined = self.combine[mi].probability(&[flat_margin, loc_margin]);
            scores[d.0 as usize].probability = combined;
            if tracing {
                let mut event = nevermind_obs::trace::TraceEvent::new("locate")
                    .attr("disposition", d.info().code)
                    .attr("location", d.location().label())
                    .attr("flat_margin", flat_margin)
                    .attr("flat_probability", self.flat_cal[mi].probability(flat_margin))
                    .attr("loc_margin", loc_margin)
                    .attr("combined_probability", combined);
                if let Some((line, day)) = provenance {
                    event = event.line(line).day(day);
                }
                nevermind_obs::trace::global().emit(event);
            }
        }
        sort_scores(scores)
    }

    /// Cost-aware ranking — the paper's *second improvement* (Sec. 6.1),
    /// which it leaves as future work: "if these locations have equal prior
    /// probabilities of being the cause of failures, a technician will save
    /// time by starting with the one which is the fastest to test." We
    /// implement it here: dispositions ordered by expected value per minute,
    /// `P(C_ij|x) / test_minutes(C_ij)`, using the combined-model
    /// posteriors. This is the greedy optimum for minimizing expected total
    /// testing time when test outcomes are independent.
    pub fn rank_cost_aware(&self, row: &[f32]) -> Vec<DispositionScore> {
        cost_aware_order(self.rank_combined(row))
    }

    /// The flat model and location model backing one disposition, if
    /// modeled — used to render the Fig. 9 combined-model structure.
    pub fn model_pair(&self, d: DispositionId) -> Option<(&BStump, &BStump, &LogisticModel)> {
        let mi = self.modeled.iter().position(|&m| m == d)?;
        Some((
            &self.flat_models[mi],
            &self.location_models[location_index(d.location())],
            &self.combine[mi],
        ))
    }

    fn prior_scores(&self) -> Vec<DispositionScore> {
        (0..N_DISPOSITIONS)
            .map(|i| DispositionScore {
                disposition: DispositionId(i as u8),
                // Prior-rate fallback: on an uninformative row a modeled
                // disposition's calibrated posterior also reverts to its
                // base rate, so the mixed ranking degrades gracefully to
                // the basic (experience) order.
                probability: self.priors[i],
            })
            .collect()
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> &LocatorConfig {
        &self.config
    }
}

/// Trains a model on all rows and returns it together with 3-fold
/// out-of-fold margins (honest score estimates for calibration/fusion).
///
/// Every fit is the model [`BStump::fit`] would train on its rows of `x`:
/// the full model trains on `binned`, the binning of `x`, and each fold on
/// the binning `sorted` (the sort of `x`) gives its training rows.
fn fit_with_oof_margins(
    x: &FeatureMatrix,
    sorted: &SortedColumns,
    binned: &BinnedDataset,
    y: &[bool],
    boost_cfg: &BoostConfig,
    seed: u64,
) -> (BStump, Vec<f64>) {
    let all_columns: Vec<usize> = (0..x.n_cols()).collect();
    let fit = |binning: &BinnedDataset, labels: &[bool]| {
        let w0 = vec![1.0 / labels.len().max(1) as f64; labels.len()];
        BStump::fit_binned(binning, labels, &w0, boost_cfg, &all_columns)
    };
    let final_model = fit(binned, y);

    let n = x.n_rows();
    let k = 3.min(n);
    if k < 2 {
        let margins = final_model.margins(x);
        return (final_model, margins);
    }
    let mut oof = vec![0.0f64; n];
    for fold in k_folds(n, k, seed) {
        let train_y: Vec<bool> = fold.train.iter().map(|&row| y[row]).collect();
        // A fold may lose every positive of a rare class; the resulting
        // single-class fit simply emits strongly negative margins, which is
        // an honest "not this class" signal for the held-out rows.
        let model = fit(&sorted.binned_rows(&fold.train, boost_cfg.n_bins), &train_y);
        for &row in &fold.validation {
            oof[row] = model.margin(x.row(row));
        }
    }
    (final_model, oof)
}

/// The locator's feature space: every base column, then the derived ones.
fn assemble(base: &EncodedDataset, derived: &[DerivedFeature]) -> Dataset {
    let all_columns: Vec<usize> = (0..base.data.x.n_cols()).collect();
    nevermind_features::encode::assemble(base, &all_columns, derived)
}

fn location_index(loc: MajorLocation) -> usize {
    // lint:allow(no-panic-in-lib) -- every MajorLocation is a member of ALL by definition
    MajorLocation::ALL.iter().position(|&l| l == loc).expect("location in ALL")
}

fn sort_scores(mut scores: Vec<DispositionScore>) -> Vec<DispositionScore> {
    scores.sort_by(|a, b| {
        b.probability.total_cmp(&a.probability).then(a.disposition.0.cmp(&b.disposition.0))
    });
    scores
}

/// Ranks of the true disposition under each ranker, for one test dispatch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExampleRanks {
    /// The recorded (true) disposition.
    pub disposition: DispositionId,
    /// 1-based rank under the basic experience model.
    pub basic: usize,
    /// 1-based rank under the flat model.
    pub flat: usize,
    /// 1-based rank under the combined model.
    pub combined: usize,
    /// 1-based rank under the cost-aware extension.
    pub cost_aware: usize,
    /// Major location of the true disposition.
    pub true_location: MajorLocation,
    /// Major location of the combined model's top-1 disposition.
    pub predicted_location: MajorLocation,
    /// Minutes a technician walking the basic order would spend testing.
    pub basic_minutes: f64,
    /// Minutes under the flat model's order.
    pub flat_minutes: f64,
    /// Minutes under the combined model's order.
    pub combined_minutes: f64,
    /// Minutes under the cost-aware order.
    pub cost_aware_minutes: f64,
}

/// Reorders a combined-model ranking by expected value per minute,
/// `P(C_ij|x) / test_minutes(C_ij)`, descending, ties by disposition id —
/// the cost-aware order of [`TroubleLocator::rank_cost_aware`].
fn cost_aware_order(mut scores: Vec<DispositionScore>) -> Vec<DispositionScore> {
    scores.sort_by(|a, b| {
        let ua = a.probability / a.disposition.info().test_minutes;
        let ub = b.probability / b.disposition.info().test_minutes;
        ub.total_cmp(&ua).then(a.disposition.0.cmp(&b.disposition.0))
    });
    scores
}

/// Minutes spent testing while walking `order` until `truth` is found: the
/// sum of each tested disposition's
/// [`test_minutes`](nevermind_dslsim::disposition::DispositionInfo::test_minutes).
fn minutes_walked(order: impl Iterator<Item = DispositionId>, truth: DispositionId) -> f64 {
    let mut minutes = 0.0;
    for d in order {
        minutes += d.info().test_minutes;
        if d == truth {
            break;
        }
    }
    minutes
}

/// Locator evaluation over a set of test dispatches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocatorEvaluation {
    /// Per-dispatch ranks.
    pub per_example: Vec<ExampleRanks>,
}

impl LocatorEvaluation {
    /// Evaluates a locator on dispatches in `[from, to)`.
    pub fn run(
        locator: &TroubleLocator,
        data: &ExperimentData,
        from: u32,
        to: u32,
    ) -> LocatorEvaluation {
        let examples = collect_dispatch_examples(&data.output.notes, from, to);
        let ds = locator.encode_examples(data, &examples);
        let basic = locator.basic_ranking();
        let per_example = examples
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let row = ds.x.row(i);
                let truth = e.disposition;
                let flat_scores = locator.rank_flat(row);
                // Keyed, so a traced evaluation's events name their dispatch.
                let combined_scores = locator.rank_combined_traced(row, Some((e.line.0, e.day)));
                let cost_scores = cost_aware_order(combined_scores.clone());
                let flat = rank_of(&flat_scores, truth);
                let combined = rank_of(&combined_scores, truth);
                let cost_aware = rank_of(&cost_scores, truth);
                let basic_rank =
                    // lint:allow(no-panic-in-lib) -- basic_ranking always ranks all 52 dispositions
                    basic.iter().position(|&d| d == truth).expect("all dispositions ranked") + 1;
                ExampleRanks {
                    disposition: truth,
                    basic: basic_rank,
                    flat,
                    combined,
                    cost_aware,
                    true_location: truth.location(),
                    predicted_location: combined_scores[0].disposition.location(),
                    basic_minutes: minutes_walked(basic.iter().copied(), truth),
                    flat_minutes: minutes_walked(flat_scores.iter().map(|s| s.disposition), truth),
                    combined_minutes: minutes_walked(
                        combined_scores.iter().map(|s| s.disposition),
                        truth,
                    ),
                    cost_aware_minutes: minutes_walked(
                        cost_scores.iter().map(|s| s.disposition),
                        truth,
                    ),
                }
            })
            .collect();
        LocatorEvaluation { per_example }
    }

    /// 4x4 confusion matrix over major locations: rows = true location,
    /// columns = the combined model's top-1 location, both in
    /// [`MajorLocation::ALL`] order. The paper motivates the locator with
    /// exactly this decision ("if the technician has enough evidence to
    /// believe a problem happens at DS, she can save time by skipping
    /// testing other three locations").
    pub fn location_confusion(&self) -> [[usize; 4]; 4] {
        let idx = |l: MajorLocation| {
            // lint:allow(no-panic-in-lib) -- every MajorLocation is a member of ALL by definition
            MajorLocation::ALL.iter().position(|&m| m == l).expect("known location")
        };
        let mut m = [[0usize; 4]; 4];
        for e in &self.per_example {
            m[idx(e.true_location)][idx(e.predicted_location)] += 1;
        }
        m
    }

    /// Fraction of dispatches whose top-1 predicted location matches the
    /// true one.
    pub fn location_accuracy(&self) -> f64 {
        if self.per_example.is_empty() {
            return f64::NAN;
        }
        let hits =
            self.per_example.iter().filter(|e| e.true_location == e.predicted_location).count();
        hits as f64 / self.per_example.len() as f64
    }

    /// Mean technician testing minutes under each ranking:
    /// `(basic, flat, combined, cost_aware)`.
    pub fn mean_minutes(&self) -> (f64, f64, f64, f64) {
        let n = self.per_example.len().max(1) as f64;
        let sum =
            |f: &dyn Fn(&ExampleRanks) -> f64| self.per_example.iter().map(f).sum::<f64>() / n;
        (
            sum(&|e| e.basic_minutes),
            sum(&|e| e.flat_minutes),
            sum(&|e| e.combined_minutes),
            sum(&|e| e.cost_aware_minutes),
        )
    }

    /// Smallest number of tests that locates at least `fraction` of the
    /// problems, per ranker: `(basic, flat, combined)`.
    pub fn tests_to_locate(&self, fraction: f64) -> (usize, usize, usize) {
        (
            quantile_rank(self.per_example.iter().map(|e| e.basic), fraction),
            quantile_rank(self.per_example.iter().map(|e| e.flat), fraction),
            quantile_rank(self.per_example.iter().map(|e| e.combined), fraction),
        )
    }

    /// Fig.-10 series: for each basic-rank bin `[lo, hi]`, the mean rank
    /// improvement (basic − model) under the flat and combined models.
    pub fn rank_change_by_bin(&self, bins: &[(usize, usize)]) -> Vec<RankChangeBin> {
        bins.iter()
            .map(|&(lo, hi)| {
                let in_bin: Vec<&ExampleRanks> =
                    self.per_example.iter().filter(|e| e.basic >= lo && e.basic <= hi).collect();
                let n = in_bin.len();
                let mean = |f: &dyn Fn(&ExampleRanks) -> f64| {
                    if n == 0 {
                        f64::NAN
                    } else {
                        in_bin.iter().map(|e| f(e)).sum::<f64>() / n as f64
                    }
                };
                RankChangeBin {
                    lo,
                    hi,
                    n,
                    flat_boost: mean(&|e| e.basic as f64 - e.flat as f64),
                    combined_boost: mean(&|e| e.basic as f64 - e.combined as f64),
                }
            })
            .collect()
    }
}

/// One Fig.-10 bin.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RankChangeBin {
    /// Bin lower bound (basic rank, inclusive).
    pub lo: usize,
    /// Bin upper bound (inclusive).
    pub hi: usize,
    /// Dispatches in the bin.
    pub n: usize,
    /// Mean rank boost of the flat model over basic.
    pub flat_boost: f64,
    /// Mean rank boost of the combined model over basic.
    pub combined_boost: f64,
}

fn rank_of(scores: &[DispositionScore], d: DispositionId) -> usize {
    // lint:allow(no-panic-in-lib) -- rank lists always cover all 52 dispositions
    scores.iter().position(|s| s.disposition == d).expect("all dispositions scored") + 1
}

fn quantile_rank(ranks: impl Iterator<Item = usize>, fraction: f64) -> usize {
    let mut v: Vec<usize> = ranks.collect();
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let idx = ((v.len() as f64 * fraction).ceil() as usize).clamp(1, v.len());
    v[idx - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::SimConfig;

    fn quick_cfg() -> LocatorConfig {
        LocatorConfig { iterations: 40, min_examples: 10, ..LocatorConfig::default() }
    }

    /// A denser world than `SimConfig::small`: the locator trains one model
    /// per disposition, so it needs a realistic dispatch volume (the paper
    /// has 7 weeks of a multi-million-line network).
    fn locator_world(seed: u64) -> ExperimentData {
        let mut cfg = SimConfig::small(seed);
        cfg.n_lines = 6_000;
        cfg.faults_per_line_year = 1.3;
        ExperimentData::simulate(cfg)
    }

    fn fitted() -> (ExperimentData, TroubleLocator) {
        let data = locator_world(91);
        let days = data.config.days;
        let locator =
            TroubleLocator::fit(&data, 30, days / 2, &quick_cfg()).expect("window has dispatches");
        (data, locator)
    }

    #[test]
    fn saturday_helper() {
        assert_eq!(saturday_at_or_before(6), Some(6));
        assert_eq!(saturday_at_or_before(7), Some(6));
        assert_eq!(saturday_at_or_before(12), Some(6));
        assert_eq!(saturday_at_or_before(13), Some(13));
        assert_eq!(saturday_at_or_before(3), None);
    }

    #[test]
    fn collects_examples_in_window() {
        let data = ExperimentData::simulate(SimConfig::small(92));
        let ex = collect_dispatch_examples(&data.output.notes, 30, 200);
        assert!(!ex.is_empty());
        for e in &ex {
            assert_eq!(e.day % 7, 6);
        }
    }

    #[test]
    fn rankings_cover_all_dispositions_once() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let ex = collect_dispatch_examples(&data.output.notes, days / 2, days);
        let ds = locator.encode_examples(&data, &ex[..1.min(ex.len())]);
        let row = ds.x.row(0);
        for ranking in [locator.rank_flat(row), locator.rank_combined(row)] {
            assert_eq!(ranking.len(), N_DISPOSITIONS);
            let mut seen: Vec<u8> = ranking.iter().map(|s| s.disposition.0).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), N_DISPOSITIONS);
            // Descending probabilities.
            for w in ranking.windows(2) {
                assert!(w[0].probability >= w[1].probability);
            }
        }
        assert_eq!(locator.basic_ranking().len(), N_DISPOSITIONS);
    }

    #[test]
    fn models_beat_basic_ranking() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        assert!(!eval.per_example.is_empty());
        let mean = |f: &dyn Fn(&ExampleRanks) -> usize| {
            eval.per_example.iter().map(|e| f(e) as f64).sum::<f64>()
                / eval.per_example.len() as f64
        };
        let basic = mean(&|e| e.basic);
        let flat = mean(&|e| e.flat);
        let combined = mean(&|e| e.combined);
        assert!(flat < basic, "flat {flat} vs basic {basic}");
        assert!(combined < basic, "combined {combined} vs basic {basic}");
    }

    #[test]
    fn tests_to_locate_half() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        let (basic, flat, combined) = eval.tests_to_locate(0.5);
        assert!(basic >= 1 && flat >= 1 && combined >= 1);
        assert!(flat <= basic);
        assert!(combined <= basic);
    }

    #[test]
    fn rank_change_bins_partition() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        let bins = eval.rank_change_by_bin(&[(1, 5), (6, 10), (11, 20), (21, 52)]);
        let total: usize = bins.iter().map(|b| b.n).sum();
        assert_eq!(total, eval.per_example.len());
    }

    #[test]
    fn cost_aware_reduces_expected_minutes() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        let (basic_min, _, combined_min, cost_min) = eval.mean_minutes();
        assert!(combined_min < basic_min, "combined {combined_min} vs basic {basic_min}");
        // The cost-aware order optimizes minutes, so it must not be worse
        // than the combined order it reweights (allowing small noise).
        assert!(
            cost_min <= combined_min * 1.05,
            "cost-aware {cost_min} vs combined {combined_min}"
        );
    }

    #[test]
    fn evaluation_cost_aware_order_matches_rank_cost_aware() {
        // `run` derives the cost-aware order from the combined ranking it
        // already holds; each example must read exactly what a separate
        // `rank_cost_aware` query gives.
        let (data, locator) = fitted();
        let days = data.config.days;
        let ex = collect_dispatch_examples(&data.output.notes, days / 2, days);
        let ds = locator.encode_examples(&data, &ex);
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        assert!(!ex.is_empty());
        assert_eq!(eval.per_example.len(), ex.len());
        for (i, (e, got)) in ex.iter().zip(&eval.per_example).enumerate() {
            let want = locator.rank_cost_aware(ds.x.row(i));
            assert_eq!(got.cost_aware, rank_of(&want, e.disposition), "example {i}");
            let minutes = minutes_walked(want.iter().map(|s| s.disposition), e.disposition);
            assert_eq!(got.cost_aware_minutes.to_bits(), minutes.to_bits(), "example {i}");
        }
    }

    #[test]
    fn cost_aware_is_a_permutation_of_dispositions() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let ex = collect_dispatch_examples(&data.output.notes, days / 2, days);
        let ds = locator.encode_examples(&data, &ex[..1]);
        let ranking = locator.rank_cost_aware(ds.x.row(0));
        assert_eq!(ranking.len(), N_DISPOSITIONS);
        let mut seen: Vec<u8> = ranking.iter().map(|s| s.disposition.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), N_DISPOSITIONS);
        // Expected-value-per-minute must descend along the list.
        for w in ranking.windows(2) {
            let ua = w[0].probability / w[0].disposition.info().test_minutes;
            let ub = w[1].probability / w[1].disposition.info().test_minutes;
            assert!(ua >= ub - 1e-12);
        }
    }

    #[test]
    fn location_confusion_sums_and_beats_prior() {
        let (data, locator) = fitted();
        let days = data.config.days;
        let eval = LocatorEvaluation::run(&locator, &data, days / 2, days);
        let m = eval.location_confusion();
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, eval.per_example.len());
        let acc = eval.location_accuracy();
        // The majority class share is the accuracy of always guessing the
        // most common location; the model must beat it.
        let mut true_counts = [0usize; 4];
        for row in 0..4 {
            true_counts[row] = m[row].iter().sum();
        }
        let majority = *true_counts.iter().max().expect("4 rows") as f64 / total as f64;
        assert!(acc > majority, "location accuracy {acc:.3} vs majority {majority:.3}");
    }

    #[test]
    fn minutes_walked_accumulates_prefix() {
        let order: Vec<DispositionId> = (0..3).map(DispositionId).collect();
        let truth = DispositionId(1);
        let expected: f64 = order[..2].iter().map(|d| d.info().test_minutes).sum();
        assert!((minutes_walked(order.iter().copied(), truth) - expected).abs() < 1e-12);
    }

    #[test]
    fn model_pair_available_for_modeled() {
        let (_, locator) = fitted();
        let d = locator.modeled_dispositions()[0];
        assert!(locator.model_pair(d).is_some());
    }

    /// The full flat and location models train on one shared binning of
    /// the assembled matrix; each must be the model `BStump::fit` trains
    /// on that matrix with the model's own labels.
    #[test]
    fn full_models_match_a_fit_on_the_assembled_matrix() {
        let data = ExperimentData::simulate(SimConfig::small(93));
        let days = data.config.days;
        let cfg = LocatorConfig { iterations: 25, min_examples: 5, ..LocatorConfig::default() };
        let locator = TroubleLocator::fit(&data, 30, days, &cfg).expect("window has dispatches");
        let examples = collect_dispatch_examples(&data.output.notes, 30, days);
        let assembled = locator.encode_examples(&data, &examples);
        let boost_cfg = BoostConfig {
            iterations: cfg.iterations,
            n_bins: cfg.n_bins,
            smoothing: None,
            parallel: true,
        };
        let reference = |y: Vec<bool>| {
            let model = BStump::fit(&Dataset::new(assembled.x.clone(), y), &boost_cfg);
            serde_json::to_string(&model).expect("model serializes")
        };
        let json = |model: &BStump| serde_json::to_string(model).expect("model serializes");
        assert!(locator.modeled.len() >= 2, "modeled: {:?}", locator.modeled);
        for (&d, model) in locator.modeled.iter().zip(&locator.flat_models) {
            let y = examples.iter().map(|e| e.disposition == d).collect();
            assert_eq!(json(model), reference(y), "disposition {}", d.0);
        }
        for (loc, model) in MajorLocation::ALL.into_iter().zip(&locator.location_models) {
            let y = examples.iter().map(|e| e.disposition.location() == loc).collect();
            assert_eq!(json(model), reference(y), "location {}", loc.label());
        }
    }

    /// The models fan out over parts, but the locator is the same at any
    /// part count.
    #[test]
    fn same_locator_at_any_part_count() {
        let data = ExperimentData::simulate(SimConfig::small(93));
        let days = data.config.days;
        let cfg = LocatorConfig { iterations: 25, min_examples: 5, ..LocatorConfig::default() };
        let json = |threads| {
            let locator = TroubleLocator::fit_in_parts(&data, 30, days, &cfg, threads)
                .expect("window has dispatches");
            assert!(locator.modeled.len() >= 2, "modeled: {:?}", locator.modeled);
            serde_json::to_string(&locator).expect("locator serializes")
        };
        assert_eq!(json(1), json(3));
    }

    /// A model's out-of-fold margins as they came before the one sort:
    /// `BStump::fit` on a `select_rows` copy of each fold's training rows.
    fn oof_margins_on_copied_rows(
        x: &FeatureMatrix,
        y: &[bool],
        boost_cfg: &BoostConfig,
        seed: u64,
    ) -> Vec<f64> {
        let mut oof = vec![0.0f64; x.n_rows()];
        for fold in k_folds(x.n_rows(), 3, seed) {
            let train = Dataset::new(
                x.select_rows(&fold.train),
                fold.train.iter().map(|&row| y[row]).collect(),
            );
            let model = BStump::fit(&train, boost_cfg);
            for &row in &fold.validation {
                oof[row] = model.margin(x.row(row));
            }
        }
        oof
    }

    /// Every fold refit reads its binning off the one sort of the assembled
    /// matrix; the Platt scales and Eq.-2 fusions fitted on their margins
    /// must be those of refits on copied rows.
    #[test]
    fn fold_refits_match_fits_on_copied_rows() {
        let data = ExperimentData::simulate(SimConfig::small(93));
        let days = data.config.days;
        let cfg = LocatorConfig { iterations: 25, min_examples: 5, ..LocatorConfig::default() };
        let locator = TroubleLocator::fit(&data, 30, days, &cfg).expect("window has dispatches");
        let examples = collect_dispatch_examples(&data.output.notes, 30, days);
        let x = locator.encode_examples(&data, &examples).x;
        let boost_cfg = BoostConfig {
            iterations: cfg.iterations,
            n_bins: cfg.n_bins,
            smoothing: None,
            parallel: true,
        };
        fn json(v: &impl Serialize) -> String {
            serde_json::to_string(v).expect("serializes")
        }
        let location_oof: Vec<Vec<f64>> = MajorLocation::ALL
            .into_iter()
            .map(|loc| {
                let y: Vec<bool> =
                    examples.iter().map(|e| e.disposition.location() == loc).collect();
                oof_margins_on_copied_rows(&x, &y, &boost_cfg, 0x10C_0000 + loc as u64)
            })
            .collect();
        assert!(locator.modeled.len() >= 2, "modeled: {:?}", locator.modeled);
        for (mi, &d) in locator.modeled.iter().enumerate() {
            let y: Vec<bool> = examples.iter().map(|e| e.disposition == d).collect();
            let oof = oof_margins_on_copied_rows(&x, &y, &boost_cfg, 0xD15_0000 + d.0 as u64);
            let cal = PlattScale::fit(&oof, &y).expect("finite margins");
            assert_eq!(json(&locator.flat_cal[mi]), json(&cal), "disposition {}", d.0);
            let fused: Vec<Vec<f64>> = oof
                .iter()
                .zip(&location_oof[location_index(d.location())])
                .map(|(&a, &b)| vec![a, b])
                .collect();
            let combine = LogisticRegression::default().fit(&fused, &y);
            assert_eq!(json(&locator.combine[mi]), json(&combine), "disposition {}", d.0);
        }
    }

    #[test]
    fn quantile_rank_math() {
        let ranks = vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile_rank(ranks.iter().copied(), 0.5), 5);
        assert_eq!(quantile_rank(ranks.iter().copied(), 1.0), 10);
        assert_eq!(quantile_rank(std::iter::empty(), 0.5), 0);
    }
}
