//! Replays: after (or beside) a traced composite call, call the inner
//! public functions again on the same inputs, time them, and check that
//! they reproduce the composite's output bit-for-bit.

use crate::{stats, timed, Checks, Layers, Metric};
use nevermind::pipeline::{ExperimentData, SplitSpec};
use nevermind::predictor::{PredictorConfig, RankedPredictions, TicketPredictor};
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineTest, Ticket};
use nevermind_features::{DerivedFeature, FeatureStore, IncrementalEncoder, WeekFrame};
use nevermind_ml::boost::{BStump, BoostConfig};
use nevermind_ml::calibrate::PlattScale;
use nevermind_ml::data::Dataset;
use nevermind_ml::score::BatchScorer;

/// Whether two models serialize to the same bytes.
pub fn same_model(a: &BStump, b: &BStump) -> bool {
    match (serde_json::to_string(a), serde_json::to_string(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// Whether two frames hold the same day, lanes, missing bits and labels,
/// comparing values by bit pattern (`NaN` lanes compare equal to
/// themselves).
pub fn same_frame(a: &WeekFrame, b: &WeekFrame) -> bool {
    a.day() == b.day()
        && a.n_lines() == b.n_lines()
        && a.n_lanes() == b.n_lanes()
        && a.labels_vec() == b.labels_vec()
        && (0..a.n_lanes()).all(|l| {
            a.lane_missing(l) == b.lane_missing(l)
                && a.lane(l).iter().zip(b.lane(l)).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Whether two probability vectors are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The boosting configuration [`TicketPredictor::fit`] trains its final
/// model with.
pub fn predictor_boost_config(config: &PredictorConfig) -> BoostConfig {
    BoostConfig {
        iterations: config.iterations,
        n_bins: config.n_bins,
        smoothing: None,
        parallel: true,
    }
}

/// Times one `BStump::fit` into `layers`.
pub fn boost_fit(layers: &mut Layers, data: &Dataset, config: &BoostConfig) -> BStump {
    let (model, s) = timed(|| BStump::fit(data, config));
    layers.boost_fit_ms.push(s * 1e3);
    layers.boost_rows += data.len() as u64;
    layers.boost_rounds += model.stumps().len() as u64;
    model
}

/// Replays the parts of a finished [`TicketPredictor::fit`]: the window
/// encodes, the final boosting fit and the calibration. Each must
/// reproduce the fitted predictor. Returns the calibration seconds (the
/// selection time is what remains of the fit).
pub fn predictor_fit(
    data: &ExperimentData,
    split: &SplitSpec,
    config: &PredictorConfig,
    predictor: &TicketPredictor,
    layers: &mut Layers,
    checks: &mut Checks,
) -> f64 {
    let ((base_train, base_eval), encode_s) = timed(|| {
        let encoder = data.encoder(config.encoder.clone());
        (encoder.encode(&split.train_days), encoder.encode(&split.selection_eval_days))
    });
    layers.encode_windows_s += encode_s;

    let assembled = predictor.assemble(&base_train);
    let model = boost_fit(layers, &assembled, &predictor_boost_config(config));
    checks.op(same_model(&model, predictor.model()), || {
        "replayed BStump::fit differs from the predictor's model".into()
    });

    let (calibration, calibrate_s) = timed(|| {
        let eval = predictor.assemble(&base_eval);
        PlattScale::fit(&predictor.model().margins(&eval.x), &eval.y)
    });
    checks.op(calibration.as_ref().ok() == Some(predictor.calibration()), || {
        "replayed calibration differs from the predictor's".into()
    });
    calibrate_s
}

/// Where one of the ensemble's used features comes from, in store-lane
/// space — the gather plan `WeeklyScorer` builds, rebuilt here from the
/// predictor's public selection.
#[derive(Debug, Clone, Copy)]
enum Source {
    Base(usize),
    Quadratic(usize),
    Product(usize, usize),
}

/// A twin of the weekly scoring engine's inner stages: its own
/// incremental encoder fed the same log suffixes, writing into its own
/// store, and the predictor's compiled ensemble gathered off that store.
/// [`WeeklyTwin::replay`] checks the twin's frame and probabilities
/// against the live engine's, bit for bit.
pub struct WeeklyTwin<'a> {
    predictor: &'a TicketPredictor,
    encoder: IncrementalEncoder<'a>,
    store: FeatureStore,
    scorer: BatchScorer,
    plan: Vec<Source>,
    threads: usize,
    meas_cursor: usize,
    ticket_cursor: usize,
    /// Milliseconds per replayed weekly encode.
    pub encode_ms: Vec<f64>,
}

impl<'a> WeeklyTwin<'a> {
    /// A twin tracking the same lanes as the live engine's store.
    pub fn new(
        predictor: &'a TicketPredictor,
        lines: &'a [Line],
        cols: &[usize],
        threads: usize,
    ) -> Self {
        let scorer = BatchScorer::new(predictor.model());
        let store = FeatureStore::new(lines.len(), cols, predictor.encoder_config());
        let n_base = predictor.selected_base().len();
        let lane = |c: usize| store.lane_of(c).unwrap_or(usize::MAX);
        let plan = scorer
            .used_columns()
            .map(|c| {
                if c < n_base {
                    Source::Base(lane(predictor.selected_base()[c]))
                } else {
                    match predictor.selected_derived()[c - n_base] {
                        DerivedFeature::Quadratic { col } => Source::Quadratic(lane(col)),
                        DerivedFeature::Product { a, b } => Source::Product(lane(a), lane(b)),
                    }
                }
            })
            .collect();
        Self {
            predictor,
            encoder: IncrementalEncoder::new(lines, predictor.encoder_config().clone()),
            store,
            scorer,
            plan,
            threads,
            meas_cursor: 0,
            ticket_cursor: 0,
            encode_ms: Vec::new(),
        }
    }

    /// Feeds the twin the logs' fresh suffix (untimed).
    pub fn ingest(&mut self, measurements: &[LineTest], tickets: &[Ticket]) {
        self.encoder.ingest_sharded(
            &measurements[self.meas_cursor..],
            &tickets[self.ticket_cursor..],
            self.threads,
        );
        self.meas_cursor = measurements.len();
        self.ticket_cursor = tickets.len();
    }

    /// Replays `day`'s encode and gather-score against the live engine's
    /// store and ranking; records the gather time in `layers.score_ms`.
    pub fn replay(
        &mut self,
        day: u32,
        live: &FeatureStore,
        ranking: &RankedPredictions,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        let (ds, encode_s) =
            timed(|| self.encoder.encode_day_cols_sharded(day, self.store.cols(), self.threads));
        self.encode_ms.push(encode_s * 1e3);
        let frame = self.store.ingest_frame(day, &ds);
        checks.op(live.latest().is_some_and(|f| same_frame(f, frame)), || {
            format!("day {day}: replayed encode_day frame differs from the engine's")
        });

        let plan = &self.plan;
        let fill = |slot: usize, rows: std::ops::Range<usize>, out: &mut [f32]| match plan[slot] {
            Source::Base(l) => frame.fill_restored(l, rows, out),
            Source::Quadratic(l) => {
                frame.fill_restored(l, rows, out);
                for o in out.iter_mut() {
                    *o = *o * *o;
                }
            }
            Source::Product(a, b) => {
                frame.fill_restored(a, rows.clone(), out);
                frame.mul_restored(b, rows, out);
            }
        };
        let (margins, gather_s) =
            timed(|| self.scorer.margins_gather_parallel(frame.n_lines(), self.threads, &fill));
        layers.score_ms.push(gather_s * 1e3);
        let probabilities = self.predictor.calibration().probabilities(&margins);
        checks.op(same_bits(&probabilities, &ranking.probabilities), || {
            format!("day {day}: replayed gather-score differs from the engine's ranking")
        });
    }
}

/// Weekly-loop figures shared by `trial` (traced replica) and `rerank`.
#[derive(Debug, Default)]
pub struct WeeklyTimes {
    /// `WeeklyScorer::observe` milliseconds per Saturday.
    pub observe_ms: Vec<f64>,
    /// `WeeklyScorer::rank_week` milliseconds per Saturday.
    pub rank_week_ms: Vec<f64>,
    /// `top_rows_sharded` milliseconds per Saturday.
    pub top_k_ms: Vec<f64>,
    /// Lines scored over all Saturdays.
    pub lines_scored: u64,
}

impl WeeklyTimes {
    /// Report figures, named after the layer modules.
    pub fn report(&self, twin: &WeeklyTwin<'_>, store: &FeatureStore) -> Vec<Metric> {
        vec![
            Metric::new("core.scoring.observe_ms_p50", stats::median(&self.observe_ms), "ms"),
            Metric::new("core.scoring.rank_week_ms_p50", stats::median(&self.rank_week_ms), "ms"),
            Metric::new("ml.top_k_ms_p50", stats::median(&self.top_k_ms), "ms"),
            Metric::new("features.encode_day_ms_p50", stats::median(&twin.encode_ms), "ms"),
            Metric::new(
                "features.store_resident_mb",
                store.resident_bytes() as f64 / (1024.0 * 1024.0),
                "MB",
            ),
            Metric::new("features.store_lanes", store.n_lanes() as f64, "count"),
            Metric::new("core.scoring.lines_scored", self.lines_scored as f64, "count"),
        ]
    }
}
