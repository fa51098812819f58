//! The Table-3 encoder.
//!
//! One *row* of the encoded dataset is a `(line, Saturday)` pair: the
//! feature vector summarizes everything known about that line **up to and
//! including** that Saturday's test, and the label records whether a
//! customer-edge ticket arrives within the horizon `T` *after* that day
//! (the paper's `Tkt(u, t, T)` with `T` = 4 weeks).
//!
//! Missing measurements stay `NaN` end to end: a line whose modem skipped
//! the test simply has `NaN` basics that week, and the BStump learner
//! abstains on them.

use crate::indexes::{MeasurementIndex, TicketIndex};
use crate::registry::{DerivedFeature, FeatureClass};
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineId, LineMetric, LineTest, Ticket, N_METRICS};
use nevermind_ml::data::{Dataset, FeatureKind, FeatureMatrix, FeatureMeta};
use nevermind_ml::stats::RunningMoments;
use serde::{Deserialize, Serialize};

/// Encoder knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Label horizon `T` in days (paper: 4 weeks).
    pub horizon_days: u32,
    /// Long-term history window (weeks) for time-series and modem features.
    pub history_weeks: usize,
    /// Minimum number of historical tests required before time-series
    /// z-scores are emitted (fewer → `NaN`).
    pub min_history_tests: usize,
    /// Maximum look-back (days) for the delta feature's previous test.
    pub delta_max_lookback_days: u32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            horizon_days: 28,
            history_weeks: 26,
            min_history_tests: 4,
            delta_max_lookback_days: 21,
        }
    }
}

/// Identifies a row of an [`EncodedDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowKey {
    /// The line.
    pub line: LineId,
    /// The prediction day (a Saturday).
    pub day: u32,
}

/// A labelled, encoded dataset plus its row/feature provenance.
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    /// Features and labels.
    pub data: Dataset,
    /// Row provenance, aligned with `data` rows.
    pub rows: Vec<RowKey>,
    /// Feature class per column, aligned with `data.x` columns.
    pub classes: Vec<FeatureClass>,
}

impl EncodedDataset {
    /// Column-subset view preserving provenance.
    pub fn select_columns(&self, cols: &[usize]) -> EncodedDataset {
        EncodedDataset {
            data: self.data.select_columns(cols),
            rows: self.rows.clone(),
            classes: cols.iter().map(|&c| self.classes[c]).collect(),
        }
    }

    /// Horizontal concatenation (same rows).
    ///
    /// # Panics
    /// Panics if the row keys differ.
    pub fn hconcat(&self, other: &EncodedDataset) -> EncodedDataset {
        assert_eq!(self.rows, other.rows, "hconcat on mismatched rows");
        let x = self.data.x.hconcat(&other.data.x);
        let mut classes = self.classes.clone();
        classes.extend(other.classes.iter().copied());
        EncodedDataset {
            data: Dataset::new(x, self.data.y.clone()),
            rows: self.rows.clone(),
            classes,
        }
    }

    /// Indices of columns in the "history + customer" group.
    pub fn base_columns(&self) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_history() || c.is_customer())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Reusable encoder over a fixed set of logs.
pub struct BaseEncoder<'a> {
    lines: &'a [Line],
    measurements: MeasurementIndex<'a>,
    tickets: TicketIndex,
    config: EncoderConfig,
}

impl<'a> BaseEncoder<'a> {
    /// Builds the encoder's indexes.
    pub fn new(
        lines: &'a [Line],
        measurements: &'a [LineTest],
        tickets: &[Ticket],
        config: EncoderConfig,
    ) -> Self {
        let measurements = MeasurementIndex::build(measurements, lines.len());
        let tickets = TicketIndex::build(tickets, lines.len());
        Self { lines, measurements, tickets, config }
    }

    /// The ticket index (shared with evaluation code).
    pub fn tickets(&self) -> &TicketIndex {
        &self.tickets
    }

    /// The measurement index.
    pub fn measurements(&self) -> &MeasurementIndex<'a> {
        &self.measurements
    }

    /// Column metadata of the base (history + customer) feature space.
    pub fn base_meta() -> (Vec<FeatureMeta>, Vec<FeatureClass>) {
        let mut meta = Vec::new();
        let mut classes = Vec::new();
        for m in LineMetric::ALL {
            let kind =
                if m.is_categorical() { FeatureKind::Binary } else { FeatureKind::Continuous };
            meta.push(FeatureMeta { name: format!("basic:{}", m.name()), kind });
            classes.push(FeatureClass::Basic);
        }
        for m in LineMetric::ALL {
            meta.push(FeatureMeta::continuous(format!("delta:{}", m.name())));
            classes.push(FeatureClass::Delta);
        }
        for m in LineMetric::ALL {
            meta.push(FeatureMeta::continuous(format!("ts:{}", m.name())));
            classes.push(FeatureClass::TimeSeries);
        }
        for name in ["dnbr", "upbr", "dnmaxattainfbr", "upmaxattainfbr", "looplength"] {
            meta.push(FeatureMeta::continuous(format!("prof:{name}")));
            classes.push(FeatureClass::Profile);
        }
        meta.push(FeatureMeta::continuous("cust:days_since_ticket"));
        classes.push(FeatureClass::Ticket);
        meta.push(FeatureMeta::continuous("cust:modem_off_frac"));
        classes.push(FeatureClass::Modem);
        (meta, classes)
    }

    /// Encodes one row per line for each prediction day.
    ///
    /// # Panics
    /// Panics if a prediction day is not a Saturday (`day % 7 == 6`).
    pub fn encode(&self, prediction_days: &[u32]) -> EncodedDataset {
        let mut keys = Vec::with_capacity(self.lines.len() * prediction_days.len());
        for &day in prediction_days {
            for line in self.lines {
                keys.push(RowKey { line: line.id, day });
            }
        }
        self.encode_rows(&keys)
    }

    /// Encodes the whole population at `day` directly into `store` — the
    /// batch writer of the week-major [`crate::FeatureStore`]. Fills only
    /// the store's tracked lanes; the ingested frame is byte-identical to
    /// what [`crate::IncrementalEncoder::encode_week_into`] writes over the
    /// same logs (both writers funnel through
    /// [`crate::FeatureStore::ingest_frame`]).
    ///
    /// # Panics
    /// Panics if `day` is not a Saturday or the store's shape does not
    /// match this encoder's population.
    pub fn encode_week_into<'s>(
        &self,
        day: u32,
        store: &'s mut crate::FeatureStore,
    ) -> &'s crate::store::WeekFrame {
        let ds = self.encode(&[day]).select_columns(store.cols());
        store.ingest_frame(day, &ds)
    }

    /// Encodes exactly the requested `(line, Saturday)` rows — used by the
    /// trouble locator, whose rows are dispatch events rather than whole
    /// population sweeps.
    ///
    /// # Panics
    /// Panics if a key's day is not a Saturday.
    pub fn encode_rows(&self, keys: &[RowKey]) -> EncodedDataset {
        let _span = nevermind_obs::span!("features/encode_rows");
        nevermind_obs::counter_add!("features/rows_encoded", keys.len());
        let (meta, classes) = Self::base_meta();
        let n_cols = meta.len();
        let n_rows = keys.len();
        let mut values = vec![f32::NAN; n_rows * n_cols];
        let mut labels = Vec::with_capacity(n_rows);

        for (row, key) in keys.iter().enumerate() {
            assert_eq!(key.day % 7, 6, "prediction day {} is not a Saturday", key.day);
            let line = &self.lines[key.line.index()];
            let slot = &mut values[row * n_cols..(row + 1) * n_cols];
            self.encode_row(line, key.day, slot);
            labels.push(self.tickets.has_ticket_within(
                key.line,
                key.day,
                self.config.horizon_days,
            ));
        }

        EncodedDataset {
            data: Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels),
            rows: keys.to_vec(),
            classes,
        }
    }

    fn encode_row(&self, line: &Line, day: u32, slot: &mut [f32]) {
        let cur = self.measurements.at(line.id, day).map(|t| &t.values);
        let prev = self
            .measurements
            .before(line.id, day)
            .last()
            .filter(|t| day - t.day <= self.config.delta_max_lookback_days)
            .map(|t| &t.values);

        // History window for time-series and modem features.
        let window_start = day.saturating_sub(self.config.history_weeks as u32 * 7);
        let history: Vec<&[f32; N_METRICS]> = self
            .measurements
            .before(line.id, day)
            .iter()
            .filter(|t| t.day >= window_start)
            .map(|t| &t.values)
            .collect();

        let days_since = days_since_ticket(self.tickets.last_before(line.id, day + 1), day);
        fill_base_row(line, day, cur, prev, &history, days_since, &self.config, slot);
    }
}

/// The `cust:days_since_ticket` value from the most recent ticket at or
/// before `day` (pass the result of a `last_before(line, day + 1)` lookup).
pub(crate) fn days_since_ticket(last_ticket: Option<u32>, day: u32) -> u32 {
    match last_ticket {
        Some(t) => (day + 1 - t).min(365),
        None => 365,
    }
}

/// Fills one base-feature row from its ingredients.
///
/// Shared by [`BaseEncoder`] (which gathers the ingredients from full-log
/// indexes) and [`crate::incremental::IncrementalEncoder`] (which keeps them
/// as per-line rolling state), so the two encoders agree bit for bit.
///
/// `history` holds the metric vectors of the tests strictly before `day`
/// within the `history_weeks` window, in chronological order; `prev` must
/// already be filtered by `delta_max_lookback_days`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_base_row(
    line: &Line,
    day: u32,
    cur: Option<&[f32; N_METRICS]>,
    prev: Option<&[f32; N_METRICS]>,
    history: &[&[f32; N_METRICS]],
    days_since: u32,
    config: &EncoderConfig,
    slot: &mut [f32],
) {
    fill_row_except_ts(line, day, cur, prev, history.len(), days_since, config, slot);

    // --- time-series z-scores (reference implementation) ---
    // The incremental encoder computes the same z-scores with a fused
    // 25-lane pass (`incremental::fill_ts_fused`) whose per-metric update
    // sequence is identical to `RunningMoments::push`, so the two paths
    // agree bit for bit (pinned by the incremental equivalence tests).
    if let Some(cur) = cur {
        if history.len() >= config.min_history_tests {
            for i in 0..N_METRICS {
                let mut mom = RunningMoments::new();
                for t in history {
                    mom.push(f64::from(t[i]));
                }
                let sd = mom.std_dev();
                let z = if sd > 1e-6 {
                    (f64::from(cur[i]) - mom.mean()) / sd
                } else if (f64::from(cur[i]) - mom.mean()).abs() < 1e-6 {
                    0.0
                } else {
                    f64::NAN
                };
                slot[2 * N_METRICS + i] = z as f32;
            }
        }
    }
}

/// Everything in a base row except the time-series z-score block: basic,
/// delta, profile, ticket-recency and modem-off features. Shared between the
/// batch and incremental encoders (which differ only in how they compute the
/// z-scores and gather the ingredients).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_row_except_ts(
    line: &Line,
    day: u32,
    cur: Option<&[f32; N_METRICS]>,
    prev: Option<&[f32; N_METRICS]>,
    history_count: usize,
    days_since: u32,
    config: &EncoderConfig,
    slot: &mut [f32],
) {
    let window_start = day.saturating_sub(config.history_weeks as u32 * 7);

    // --- basic + delta ---
    if let Some(cur) = cur {
        for (i, &v) in cur.iter().enumerate() {
            slot[i] = v;
        }
        if let Some(prev) = prev {
            for i in 0..N_METRICS {
                slot[N_METRICS + i] = cur[i] - prev[i];
            }
        }
    }

    // --- profile features ---
    let pbase = 3 * N_METRICS;
    if let Some(cur) = cur {
        let down = line.profile.down_kbps() as f32;
        let up = line.profile.up_kbps() as f32;
        slot[pbase] = cur[LineMetric::DnBr.index()] / down;
        slot[pbase + 1] = cur[LineMetric::UpBr.index()] / up;
        slot[pbase + 2] = cur[LineMetric::DnMaxAttainFbr.index()] / down;
        slot[pbase + 3] = cur[LineMetric::UpMaxAttainFbr.index()] / up;
        slot[pbase + 4] =
            cur[LineMetric::LoopLength.index()] / line.profile.marginal_loop_ft() as f32;
    }

    // --- ticket recency ---
    slot[pbase + 5] = days_since as f32;

    // --- modem-off fraction ---
    // Expected Saturdays in the window (Saturdays are day % 7 == 6).
    let first_sat =
        if window_start % 7 <= 6 { window_start + (6 - window_start % 7) } else { window_start };
    let expected = if day > first_sat { ((day - first_sat) / 7 + 1) as usize } else { 1 };
    let present = history_count + usize::from(cur.is_some());
    let frac_off = 1.0 - (present as f64 / expected as f64).min(1.0);
    slot[pbase + 6] = frac_off as f32;
}

/// Every quadratic over continuous base columns.
pub fn all_quadratics(base: &EncodedDataset) -> Vec<DerivedFeature> {
    base.data
        .x
        .meta()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.kind == FeatureKind::Continuous)
        .map(|(col, _)| DerivedFeature::Quadratic { col })
        .collect()
}

/// Every pairwise product over continuous base columns (`a < b`).
pub fn all_products(base: &EncodedDataset) -> Vec<DerivedFeature> {
    let continuous: Vec<usize> = base
        .data
        .x
        .meta()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.kind == FeatureKind::Continuous)
        .map(|(i, _)| i)
        .collect();
    let mut out = Vec::with_capacity(continuous.len() * (continuous.len() - 1) / 2);
    for (ai, &a) in continuous.iter().enumerate() {
        for &b in &continuous[ai + 1..] {
            out.push(DerivedFeature::Product { a, b });
        }
    }
    out
}

/// Materializes derived columns from a base dataset (derived-only result;
/// combine with [`EncodedDataset::hconcat`]).
pub fn derive(base: &EncodedDataset, features: &[DerivedFeature]) -> EncodedDataset {
    let n_rows = base.data.len();
    let meta: Vec<FeatureMeta> =
        features.iter().map(|f| FeatureMeta::continuous(f.name(base.data.x.meta()))).collect();
    let classes: Vec<FeatureClass> = features.iter().map(|f| f.class()).collect();

    let mut values = Vec::with_capacity(n_rows * features.len());
    for r in 0..n_rows {
        let row = base.data.x.row(r);
        for f in features {
            let v = match f {
                DerivedFeature::Quadratic { col } => row[*col] * row[*col],
                DerivedFeature::Product { a, b } => row[*a] * row[*b],
            };
            values.push(v);
        }
    }

    EncodedDataset {
        data: Dataset::new(FeatureMatrix::new(n_rows, meta, values), base.data.y.clone()),
        rows: base.rows.clone(),
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::{SimConfig, World};

    fn sim() -> (Vec<Line>, nevermind_dslsim::SimOutput) {
        let cfg = SimConfig::small(21);
        let world = World::generate(cfg);
        let lines = world.topology().lines.clone();
        (lines, world.run())
    }

    #[test]
    fn encodes_expected_shape() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let day = 27 * 7 + 6; // a mid-run Saturday
        let ds = enc.encode(&[day]);
        assert_eq!(ds.data.len(), lines.len());
        assert_eq!(ds.data.x.n_cols(), 25 * 3 + 5 + 2);
        assert_eq!(ds.classes.len(), ds.data.x.n_cols());
        assert_eq!(ds.rows.len(), lines.len());
        assert!(ds.rows.iter().all(|r| r.day == day));
    }

    #[test]
    #[should_panic(expected = "not a Saturday")]
    fn rejects_non_saturdays() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let _ = enc.encode(&[100]);
    }

    #[test]
    fn basic_features_match_measurements() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let day = 20 * 7 + 6;
        let ds = enc.encode(&[day]);
        // Find a row whose line measured that day and check value passthrough.
        let m =
            out.measurements.iter().find(|m| m.day == day).expect("someone measured that Saturday");
        let row_idx = ds.rows.iter().position(|r| r.line == m.line).expect("row exists");
        for i in 0..N_METRICS {
            let v = ds.data.x.get(row_idx, i);
            assert_eq!(v, m.values[i], "metric {i}");
        }
    }

    #[test]
    fn missing_test_yields_nan_basics_but_customer_features() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let day = 20 * 7 + 6;
        let measured: std::collections::BTreeSet<LineId> =
            out.measurements.iter().filter(|m| m.day == day).map(|m| m.line).collect();
        let ds = enc.encode(&[day]);
        let row_idx =
            ds.rows.iter().position(|r| !measured.contains(&r.line)).expect("some modem was off");
        assert!(ds.data.x.get(row_idx, 0).is_nan(), "basic must be missing");
        // Ticket-recency and modem features never go missing.
        let n = ds.data.x.n_cols();
        assert!(!ds.data.x.get(row_idx, n - 1).is_nan(), "modem feature");
        assert!(!ds.data.x.get(row_idx, n - 2).is_nan(), "ticket feature");
        // And the modem-off fraction should be positive for a line that
        // skipped this very test.
        assert!(ds.data.x.get(row_idx, n - 1) > 0.0);
    }

    #[test]
    fn labels_match_ticket_windows() {
        let (lines, out) = sim();
        let cfg = EncoderConfig::default();
        let enc = BaseEncoder::new(&lines, &out.measurements, &out.tickets, cfg.clone());
        let day = 15 * 7 + 6;
        let ds = enc.encode(&[day]);
        for (row, key) in ds.rows.iter().enumerate() {
            let expected = out
                .customer_edge_tickets()
                .any(|t| t.line == key.line && t.day > day && t.day <= day + cfg.horizon_days);
            assert_eq!(ds.data.y[row], expected, "label mismatch line {}", key.line);
        }
        assert!(ds.data.n_positive() > 0, "some positives expected");
    }

    #[test]
    fn delta_is_current_minus_previous() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let day = 20 * 7 + 6;
        let ds = enc.encode(&[day]);
        // A line measured both this week and last week.
        let this_week: std::collections::BTreeMap<LineId, &LineTest> =
            out.measurements.iter().filter(|m| m.day == day).map(|m| (m.line, m)).collect();
        let last_week: std::collections::BTreeMap<LineId, &LineTest> =
            out.measurements.iter().filter(|m| m.day == day - 7).map(|m| (m.line, m)).collect();
        let line = *this_week
            .keys()
            .find(|l| last_week.contains_key(l))
            .expect("a line measured two consecutive Saturdays");
        let row = ds.rows.iter().position(|r| r.line == line).expect("row");
        let cur = this_week[&line];
        let prev = last_week[&line];
        for i in 0..N_METRICS {
            let expected = cur.values[i] - prev.values[i];
            let got = ds.data.x.get(row, N_METRICS + i);
            assert!((got - expected).abs() < 1e-5, "delta metric {i}: {got} vs {expected}");
        }
    }

    #[test]
    fn time_series_zscores_are_standardized_for_stable_lines() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let day = 30 * 7 + 6;
        let ds = enc.encode(&[day]);
        // Across the healthy majority, z-scores should mostly be modest.
        let ts_col = 2 * N_METRICS + LineMetric::DnNmr.index();
        let zs: Vec<f32> =
            (0..ds.data.len()).map(|r| ds.data.x.get(r, ts_col)).filter(|z| !z.is_nan()).collect();
        assert!(zs.len() > lines.len() / 2, "most lines should have enough history");
        let small = zs.iter().filter(|z| z.abs() < 3.0).count();
        assert!(
            small as f64 > 0.9 * zs.len() as f64,
            "z-scores should be standardized: {small}/{}",
            zs.len()
        );
    }

    #[test]
    fn derived_columns_compute_squares_and_products() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        let feats =
            vec![DerivedFeature::Quadratic { col: 1 }, DerivedFeature::Product { a: 1, b: 2 }];
        let der = derive(&ds, &feats);
        assert_eq!(der.data.x.n_cols(), 2);
        for r in 0..ds.data.len().min(50) {
            let a = ds.data.x.get(r, 1);
            let b = ds.data.x.get(r, 2);
            let q = der.data.x.get(r, 0);
            let p = der.data.x.get(r, 1);
            if a.is_nan() {
                assert!(q.is_nan());
            } else {
                assert_eq!(q, a * a);
            }
            if a.is_nan() || b.is_nan() {
                assert!(p.is_nan());
            } else {
                assert_eq!(p, a * b);
            }
        }
        let joined = ds.hconcat(&der);
        assert_eq!(joined.data.x.n_cols(), ds.data.x.n_cols() + 2);
    }

    #[test]
    fn derived_enumerations_cover_continuous_columns() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        let n_cont = ds.data.x.meta().iter().filter(|m| m.kind == FeatureKind::Continuous).count();
        assert_eq!(all_quadratics(&ds).len(), n_cont);
        assert_eq!(all_products(&ds).len(), n_cont * (n_cont - 1) / 2);
    }

    #[test]
    fn base_columns_are_all_base() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        assert_eq!(ds.base_columns().len(), ds.data.x.n_cols());
    }
}
