//! Model-health telemetry: is the fitted ranker still operating under the
//! conditions it was trained on?
//!
//! The paper trains once on a two-month window and shows prediction quality
//! varying month to month as plant and seasonal conditions shift (Sec. 5).
//! Operationally that is a silent failure mode: nothing in the weekly loop
//! notices that the input distributions have walked away from the training
//! window until dispatch precision has already sunk. [`ModelHealthMonitor`]
//! closes that gap with the standard scorecard-monitoring recipe:
//!
//! * **Reference snapshot** ([`ModelHealthMonitor::from_training`]): right
//!   after [`TicketPredictor`] is fitted, re-encode the *last* training
//!   Saturday — a single whole-population snapshot, shaped exactly like
//!   every weekly snapshot the monitor will compare against (earlier
//!   training Saturdays can sit so close to the start of history that
//!   windowed features are still NaN, which would read as huge permanent
//!   drift) — and freeze per-feature quantile binnings and bin counts for
//!   the monitored features, the calibrated-score distribution, and the
//!   reference calibration quality (ECE).
//! * **Weekly comparison** ([`ModelHealthMonitor::observe_week`]): every
//!   scored Saturday, bin the live feature values and scores into the
//!   *reference* bins and emit one PSI point per monitored feature
//!   (`telemetry/psi/<feature>`), the week's largest of them
//!   (`telemetry/psi_max`), and one for the score distribution
//!   (`telemetry/score_psi`).
//! * **Label maturation**: ticket labels for week `d` only close at
//!   `d + horizon`; scored weeks are parked until their window closes, then
//!   realized calibration is emitted (`telemetry/ece`, `telemetry/brier`,
//!   keyed by the *scored* day).
//!
//! The monitor records numbers and never judges them. Whether they mean
//! healthy, warning or alert is decided in one place, the
//! [`nevermind_obs::rules`] engine, and [`MODEL_HEALTH_RULES`] is the
//! scorecard policy `nevermind trial` installs by default. Its `for 2`
//! debounce runs on `telemetry/psi_max`, the worst monitored feature, so
//! one rule watches every feature. Rules evaluate on the history tick at
//! the end of each Saturday, before that Saturday is ranked, so they judge
//! the previous ranked week's numbers; the verdict a run reports is the
//! engine's state at its end, not the worst state it passed through.
//!
//! Everything is recorded through the global [`nevermind_obs`] registry, so
//! any `--metrics` dump carries the full telemetry without extra plumbing.
//! The monitor only ever *reads* the scoring path — its weekly feature
//! values are borrowed straight from the week's
//! [`nevermind_features::FeatureStore`] frame (the very lanes the ranking
//! was scored from; no second encode) — so rankings and dispatch decisions
//! are bit-identical with and without it, pinned by the equivalence test
//! in `tests/observability.rs`.
//!
//! A week can be *empty* — zero lines, or a population whose scored
//! distribution carries no mass — and a PSI against an empty population is
//! undefined ([`nevermind_ml::drift::PsiError`]). The monitor records such
//! weeks in the `telemetry/psi_skipped` counter, pushes no point for them,
//! and keeps the trial alive instead of panicking.

use crate::pipeline::{ExperimentData, SplitSpec};
use crate::predictor::{RankedPredictions, TicketPredictor};
use nevermind_dslsim::Ticket;
use nevermind_features::encode::EncoderConfig;
use nevermind_features::{BaseEncoder, FeatureStore};
use nevermind_ml::calibrate::{brier_score, expected_calibration_error};
use nevermind_ml::drift::{bin_counts, bin_counts_from, psi, quantile_edges};

/// The scorecard policy for the monitor's series, as `nevermind_obs::rules`
/// text: a warning and a critical threshold each for the worst feature
/// PSI, the score PSI and matured ECE. The PSI alerts must hold for two
/// weekly evaluations (drift persists; an outage blip or sampling noise on
/// a sparse feature does not); the ECE alerts fire at once. `nevermind
/// trial` installs it unless `--rules` replaces it.
pub const MODEL_HEALTH_RULES: &str = "\
alert model/feature_drift        if series_last(telemetry/psi_max)   >= 0.1  for 2 severity warning
alert model/feature_drift_severe if series_last(telemetry/psi_max)   >= 0.25 for 2 severity critical
alert model/score_drift          if series_last(telemetry/score_psi) >= 0.1  for 2 severity warning
alert model/score_drift_severe   if series_last(telemetry/score_psi) >= 0.25 for 2 severity critical
alert model/miscalibrated        if series_last(telemetry/ece)       >= 0.05 for 1 severity warning
alert model/miscalibrated_severe if series_last(telemetry/ece)       >= 0.15 for 1 severity critical
";

/// Sizing for the model-health monitor.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Target in-range bin count for the PSI quantile binnings.
    pub n_bins: usize,
    /// How many of the predictor's selected base features to monitor
    /// (selection order, i.e. strongest AP(N) first).
    pub max_features: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { n_bins: 10, max_features: 12 }
    }
}

/// Reference state for one monitored feature. The corresponding base
/// column index lives at the same position in
/// [`ModelHealthMonitor::monitored_columns`].
struct FeatureRef {
    /// Encoder feature name (`ts:...`, `basic:...`).
    name: String,
    /// Quantile edges frozen from the training window.
    edges: Vec<f64>,
    /// Training-window counts over those edges (plus the NaN bucket).
    ref_counts: Vec<u64>,
}

/// A scored week waiting for its label window to close.
struct PendingWeek {
    day: u32,
    /// Row-aligned line indices and calibrated probabilities.
    line_indices: Vec<usize>,
    probabilities: Vec<f64>,
}

/// End-of-trial telemetry summary (the registry holds the full series).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Scored weeks compared against the reference.
    pub weeks_observed: usize,
    /// The monitored feature with the largest PSI seen, if any week ran.
    pub worst_feature: Option<(String, f64)>,
    /// Largest score-distribution PSI seen.
    pub max_score_psi: f64,
    /// ECE of the most recently matured week, if any matured.
    pub last_ece: Option<f64>,
    /// Brier score of the most recently matured week, if any matured.
    pub last_brier: Option<f64>,
    /// ECE of the reference (training-window) ranking.
    pub reference_ece: f64,
}

impl TelemetryReport {
    /// One-line operator summary for CLI output.
    pub fn summary(&self) -> String {
        let worst = match &self.worst_feature {
            Some((name, p)) => format!("worst feature PSI {p:.3} ({name})"),
            None => "no weeks observed".to_string(),
        };
        let ece = match self.last_ece {
            Some(e) => format!("{e:.4}"),
            None => "pending".to_string(),
        };
        format!(
            "model health over {} weeks: {}; score PSI {:.3}; ECE {} vs {:.4} at fit",
            self.weeks_observed, worst, self.max_score_psi, ece, self.reference_ece,
        )
    }
}

/// Drift/calibration monitor comparing every scored week against a frozen
/// training-window reference. See the module docs for the design.
pub struct ModelHealthMonitor {
    n_bins: usize,
    /// The predictor's encoder settings; their label window decides when a
    /// scored week's labels are final.
    encoder_config: EncoderConfig,
    features: Vec<FeatureRef>,
    monitored_cols: Vec<usize>,
    score_edges: Vec<f64>,
    score_ref_counts: Vec<u64>,
    reference_ece: f64,
    /// Per-line customer-edge ticket days, appended in arrival order.
    ticket_days: Vec<Vec<u32>>,
    ticket_cursor: usize,
    pending: Vec<PendingWeek>,
    weeks_observed: usize,
    worst_feature: Option<(String, f64)>,
    max_score_psi: f64,
    last_ece: Option<f64>,
    last_brier: Option<f64>,
}

impl ModelHealthMonitor {
    /// Captures the reference snapshot for a freshly fitted predictor:
    /// re-encodes the last training Saturday of `train_data` (a single
    /// population snapshot, directly comparable to each future weekly
    /// snapshot), freezes quantile binnings for the monitored features and
    /// the calibrated scores, and records the reference distributions into
    /// the global registry. `n_live_lines` sizes the ticket index for the
    /// population the monitor will observe (which may come from a different
    /// world than the training data — that mismatch is exactly what it
    /// detects).
    pub fn from_training(
        predictor: &TicketPredictor,
        train_data: &ExperimentData,
        split: &SplitSpec,
        n_live_lines: usize,
        config: &TelemetryConfig,
    ) -> Self {
        let _span = nevermind_obs::span!("telemetry/reference");
        let encoder = train_data.encoder(predictor.encoder_config().clone());
        // lint:allow(no-panic-in-lib) -- SplitSpec constructors reject empty training windows
        let reference_day = *split.train_days.last().expect("empty training window");
        let base = encoder.encode(&[reference_day]);
        let (meta, _) = BaseEncoder::base_meta();

        let monitored_cols: Vec<usize> =
            predictor.selected_base().iter().take(config.max_features).copied().collect();
        let n_rows = base.data.len();
        let features: Vec<FeatureRef> = monitored_cols
            .iter()
            .map(|&col| {
                let values: Vec<f64> =
                    (0..n_rows).map(|r| f64::from(base.data.x.row(r)[col])).collect();
                let edges = quantile_edges(&values, config.n_bins);
                let ref_counts = bin_counts(&edges, &values);
                let name = meta[col].name.clone();
                record_reference_distribution(&format!("telemetry/ref/{name}"), &values);
                FeatureRef { name, edges, ref_counts }
            })
            .collect();

        let ranking = predictor.rank_encoded(&base);
        let score_edges = quantile_edges(&ranking.probabilities, config.n_bins);
        let score_ref_counts = bin_counts(&score_edges, &ranking.probabilities);
        record_reference_distribution("telemetry/ref/score", &ranking.probabilities);
        let reference_ece =
            expected_calibration_error(&ranking.probabilities, &ranking.labels, config.n_bins);

        nevermind_obs::global().gauge("telemetry/reference_ece").set(reference_ece);

        Self {
            n_bins: config.n_bins,
            encoder_config: predictor.encoder_config().clone(),
            features,
            monitored_cols,
            score_edges,
            score_ref_counts,
            reference_ece,
            ticket_days: vec![Vec::new(); n_live_lines],
            ticket_cursor: 0,
            pending: Vec::new(),
            weeks_observed: 0,
            worst_feature: None,
            max_score_psi: 0.0,
            last_ece: None,
            last_brier: None,
        }
    }

    /// The base columns the monitor bins each week, aligned with the
    /// monitored features — pass to `WeeklyScorer::track_columns` so the
    /// weekly store frames carry these lanes.
    pub fn monitored_columns(&self) -> &[usize] {
        &self.monitored_cols
    }

    /// Compares one scored Saturday against the reference. `ranking` is the
    /// week's population ranking, `store` the weekly scorer's feature store
    /// — the monitor borrows the ranked day's frame and bins each monitored
    /// column's lane directly, so the week's values are read zero-copy from
    /// the same memory the ranking was scored from. `tickets` is the
    /// world's full growing ticket log (a cursor skips what was already
    /// seen). Calibration (ECE/Brier) is emitted later, once the week's
    /// label window closes.
    ///
    /// A PSI that is undefined for the week — an empty population, a
    /// scored distribution with no mass — is counted in
    /// `telemetry/psi_skipped` and gets no point (an empty week is no
    /// evidence of drift either way).
    ///
    /// # Panics
    /// Panics if the store does not hold `day`'s frame or does not track
    /// every monitored column — wiring errors, not data states.
    pub fn observe_week(
        &mut self,
        day: u32,
        ranking: &RankedPredictions,
        store: &FeatureStore,
        tickets: &[Ticket],
    ) {
        let _span = nevermind_obs::span!("telemetry/observe_week");
        self.ingest_tickets(tickets);

        let frame = store
            .latest()
            .filter(|f| f.day() == day)
            // lint:allow(no-panic-in-lib) -- the weekly loop always ranks `day` (filling its frame) before observing it
            .expect("the observed day's frame must be resident in the store");

        let reg = nevermind_obs::global();
        let x = f64::from(day);
        let mut week_max: Option<f64> = None;
        for (feat, &col) in self.features.iter().zip(&self.monitored_cols) {
            let lane = store
                .lane_of(col)
                // lint:allow(no-panic-in-lib) -- the pipeline tracks every monitored column in the store
                .expect("store tracks every monitored column");
            let counts = bin_counts_from(&feat.edges, frame.lane_f64(lane));
            let Ok(p) = psi(&feat.ref_counts, &counts) else {
                reg.counter("telemetry/psi_skipped").inc();
                continue;
            };
            reg.series(&format!("telemetry/psi/{}", feat.name)).push(x, p);
            week_max = Some(week_max.map_or(p, |m| m.max(p)));
            if self.worst_feature.as_ref().map_or(true, |(_, worst)| p > *worst) {
                self.worst_feature = Some((feat.name.clone(), p));
            }
        }
        if let Some(m) = week_max {
            reg.series("telemetry/psi_max").push(x, m);
        }

        let live_scores = reg.distribution("telemetry/live/score", 0.0, 1.0, self.n_bins);
        live_scores.record_all(&ranking.probabilities);
        match psi(&self.score_ref_counts, &bin_counts(&self.score_edges, &ranking.probabilities)) {
            Ok(score_psi) => {
                reg.series("telemetry/score_psi").push(x, score_psi);
                self.max_score_psi = self.max_score_psi.max(score_psi);
            }
            Err(_) => reg.counter("telemetry/psi_skipped").inc(),
        }
        reg.counter("telemetry/weeks_observed").inc();
        self.weeks_observed += 1;

        self.pending.push(PendingWeek {
            day,
            line_indices: ranking.rows.iter().map(|k| k.line.index()).collect(),
            probabilities: ranking.probabilities.clone(),
        });
        self.mature_through(day);
    }

    /// Ingests any remaining tickets, matures every week whose label window
    /// closed by `frontier_day` (the last simulated day), and returns the
    /// summary.
    pub fn finish(mut self, tickets: &[Ticket], frontier_day: u32) -> TelemetryReport {
        self.ingest_tickets(tickets);
        self.mature_through(frontier_day);
        TelemetryReport {
            weeks_observed: self.weeks_observed,
            worst_feature: self.worst_feature,
            max_score_psi: self.max_score_psi,
            last_ece: self.last_ece,
            last_brier: self.last_brier,
            reference_ece: self.reference_ece,
        }
    }

    fn ingest_tickets(&mut self, tickets: &[Ticket]) {
        assert!(tickets.len() >= self.ticket_cursor, "ticket log must only grow");
        for t in &tickets[self.ticket_cursor..] {
            if t.is_customer_edge() {
                let days = &mut self.ticket_days[t.line.index()];
                // The simulator emits tickets in day order; keep the
                // per-line lists sorted even if a source does not.
                match days.last() {
                    Some(&last) if last > t.day => {
                        let at = days.partition_point(|&d| d <= t.day);
                        days.insert(at, t.day);
                    }
                    _ => days.push(t.day),
                }
            }
        }
        self.ticket_cursor = tickets.len();
    }

    /// Emits realized calibration for every pending week whose label window
    /// `(day, day + horizon]` lies fully within the ingested ticket range.
    fn mature_through(&mut self, frontier_day: u32) {
        let reg = nevermind_obs::global();
        let mut still_pending = Vec::new();
        for week in self.pending.drain(..) {
            let label_end = self.encoder_config.label_end(week.day);
            if label_end > frontier_day {
                still_pending.push(week);
                continue;
            }
            let labels: Vec<bool> = week
                .line_indices
                .iter()
                .map(|&li| {
                    let days = &self.ticket_days[li];
                    let cut = days.partition_point(|&d| d <= week.day);
                    days.get(cut).is_some_and(|&d| d <= label_end)
                })
                .collect();
            let ece = expected_calibration_error(&week.probabilities, &labels, self.n_bins);
            let brier = brier_score(&week.probabilities, &labels);
            reg.series("telemetry/ece").push(f64::from(week.day), ece);
            reg.series("telemetry/brier").push(f64::from(week.day), brier);
            self.last_ece = Some(ece);
            self.last_brier = Some(brier);
        }
        self.pending = still_pending;
    }
}

/// Records a value sample as a fixed-bin [`nevermind_obs::Distribution`]
/// so the JSON dump's `distributions` section carries the actual reference
/// shapes (the PSI math uses quantile bins; the dump uses equal-width bins
/// over the finite value range, which is what a human wants to look at).
fn record_reference_distribution(name: &str, values: &[f64]) {
    let finite = values.iter().copied().filter(|v| v.is_finite());
    let lo = finite.clone().fold(f64::INFINITY, f64::min);
    let hi = finite.fold(f64::NEG_INFINITY, f64::max);
    let (lo, hi) = if lo.is_finite() && hi.is_finite() && lo < hi { (lo, hi) } else { (0.0, 1.0) };
    // Nudge the top edge so the observed maximum lands inside the last bin
    // rather than in overflow.
    let hi = hi + (hi - lo) * 1e-9 + f64::MIN_POSITIVE;
    nevermind_obs::global().distribution(name, lo, hi, 20).record_all(values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_obs::rules::{parse_rules, Cmp, Severity};

    #[test]
    fn default_thresholds_are_the_scorecard_convention() {
        let rules = parse_rules(MODEL_HEALTH_RULES).expect("the built-in set parses");
        assert!(rules.records.is_empty() && rules.slos.is_empty());
        let got: Vec<(&str, String, f64, u32, Severity)> = rules
            .alerts
            .iter()
            .inspect(|a| assert_eq!(a.cmp, Cmp::Ge, "{}", a.name))
            .map(|a| (a.name.as_str(), a.expr.canonical(), a.threshold, a.for_ticks, a.severity))
            .collect();
        let psi_max = "series_last(telemetry/psi_max)".to_string();
        let score = "series_last(telemetry/score_psi)".to_string();
        let ece = "series_last(telemetry/ece)".to_string();
        assert_eq!(
            got,
            vec![
                ("model/feature_drift", psi_max.clone(), 0.1, 2, Severity::Warning),
                ("model/feature_drift_severe", psi_max, 0.25, 2, Severity::Critical),
                ("model/score_drift", score.clone(), 0.1, 2, Severity::Warning),
                ("model/score_drift_severe", score, 0.25, 2, Severity::Critical),
                ("model/miscalibrated", ece.clone(), 0.05, 1, Severity::Warning),
                ("model/miscalibrated_severe", ece, 0.15, 1, Severity::Critical),
            ]
        );
        let cfg = TelemetryConfig::default();
        assert!(cfg.max_features > 0 && cfg.n_bins >= 2);
    }

    #[test]
    fn example_rules_file_repeats_the_built_in_set() {
        // `--rules` replaces the built-in set, so the shipped example
        // carries it verbatim to keep the model-health alerts.
        let example = include_str!("../../../examples/history.rules");
        assert!(example.contains(MODEL_HEALTH_RULES), "examples/history.rules drifted");
    }

    #[test]
    fn report_summary_carries_the_numbers() {
        let report = TelemetryReport {
            weeks_observed: 4,
            worst_feature: Some(("ts:snr_dn:mean".into(), 0.17)),
            max_score_psi: 0.08,
            last_ece: Some(0.004),
            last_brier: Some(0.01),
            reference_ece: 0.002,
        };
        assert_eq!(
            report.summary(),
            "model health over 4 weeks: worst feature PSI 0.170 (ts:snr_dn:mean); \
             score PSI 0.080; ECE 0.0040 vs 0.0020 at fit"
        );
    }
}
