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
//!
//! [`BaseEncoder`] encodes any set of rows over a fixed log — training
//! windows, the telemetry reference, batch ranking, the locator's dispatch
//! rows. It keeps no row-filling code of its own: it replays each line's
//! tests and tickets, one line at a time, through the weekly encoder's
//! per-line state and routine (`crate::incremental`), so batch and weekly
//! rows are the same bytes by construction. The replay writes rows
//! ([`BaseEncoder::encode_rows`]) or lanes ([`BaseEncoder::encode_lanes`]).
//!
//! [`assemble`] builds a model's feature space from a base encoding in one
//! pass: the selected base columns, then the derived quadratic and product
//! columns, each computed by [`DerivedFeature::value`]. The locator and
//! the ranking explanations build their matrices with it. The ticket
//! predictor's final fit never builds one: [`AssembledLanes`] writes the
//! same columns one at a time from lanes. Population scoring never builds
//! one either (the core crate's compiled plan gathers the base columns it
//! needs instead).

use crate::incremental::{encode_line_into, ts_lanes, LineState};
use crate::indexes::{MeasurementIndex, TicketIndex};
use crate::registry::{DerivedFeature, FeatureClass};
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineId, LineMetric, LineTest, Ticket, N_METRICS};
use nevermind_ml::data::{Dataset, FeatureKind, FeatureMatrix, FeatureMeta};
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

impl EncoderConfig {
    /// First day of the history window that ends on `day`. A window longer
    /// than the `u32` day range reaches back to day 0.
    pub(crate) fn window_start(&self, day: u32) -> u32 {
        day.saturating_sub(saturating_u32(self.history_weeks).saturating_mul(7))
    }

    /// Last day of the label window `(day, day + horizon]`. A horizon past
    /// the `u32` day range ends on its last day.
    pub fn label_end(&self, day: u32) -> u32 {
        day.saturating_add(self.horizon_days)
    }
}

/// `n` as a `u32`, or `u32::MAX` when it does not fit.
pub(crate) fn saturating_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
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
}

/// Batch encoder over a fixed set of logs: encodes any `(line, Saturday)`
/// rows by replaying each line through the weekly encoder's per-line state.
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

    /// The rows [`Self::encode`] lays out for the prediction days: one per
    /// line for each day, day after day, lines in plant order.
    pub fn keys(&self, prediction_days: &[u32]) -> Vec<RowKey> {
        let mut keys = Vec::with_capacity(self.lines.len() * prediction_days.len());
        for &day in prediction_days {
            for line in self.lines {
                keys.push(RowKey { line: line.id, day });
            }
        }
        keys
    }

    /// Encodes one row per line for each prediction day: [`Self::encode_rows`]
    /// of [`Self::keys`].
    ///
    /// # Panics
    /// Panics if a prediction day is not a Saturday (`day % 7 == 6`).
    pub fn encode(&self, prediction_days: &[u32]) -> EncodedDataset {
        self.encode_rows(&self.keys(prediction_days))
    }

    /// Encodes exactly the requested `(line, Saturday)` rows, in the given
    /// order (repeats allowed). A row depends on its key alone, so a subset
    /// of [`Self::keys`] encodes to exactly those rows of [`Self::encode`].
    ///
    /// # Panics
    /// Panics if a key's day is not a Saturday.
    pub fn encode_rows(&self, keys: &[RowKey]) -> EncodedDataset {
        let _span = nevermind_obs::span!("features/encode_rows");
        let (meta, classes) = Self::base_meta();
        let n_cols = meta.len();
        let mut values = vec![0.0f32; keys.len() * n_cols];
        let mut labels = vec![false; keys.len()];
        let cols: Vec<usize> = (0..n_cols).collect();
        self.replay(keys, &cols, |i, row, label| {
            values[i * n_cols..(i + 1) * n_cols].copy_from_slice(row);
            labels[i] = label;
        });
        EncodedDataset {
            data: Dataset::new(FeatureMatrix::new(keys.len(), meta, values), labels),
            rows: keys.to_vec(),
            classes,
        }
    }

    /// [`Self::encode_rows`]' columns `cols` (repeats allowed) and labels,
    /// lane-major: lane `j` is column `cols[j]` on each key, in key order.
    /// Only the time-series lanes those columns need run their z-score pass.
    ///
    /// # Panics
    /// Panics if a key's day is not a Saturday or a column is out of range.
    pub fn encode_lanes(&self, keys: &[RowKey], cols: &[usize]) -> (Vec<Vec<f32>>, Vec<bool>) {
        let _span = nevermind_obs::span!("features/encode_lanes");
        let mut lanes = vec![vec![0.0f32; keys.len()]; cols.len()];
        let mut labels = vec![false; keys.len()];
        self.replay(keys, cols, |i, row, label| {
            for (lane, &v) in lanes.iter_mut().zip(row) {
                lane[i] = v;
            }
            labels[i] = label;
        });
        (lanes, labels)
    }

    /// The label [`Self::encode_rows`] gives each key — a customer-edge
    /// ticket in `(day, day + horizon]` — read from the ticket index
    /// alone, without encoding a row.
    pub fn labels(&self, keys: &[RowKey]) -> Vec<bool> {
        let horizon = self.config.horizon_days;
        keys.iter().map(|k| self.tickets.first_within(k.line, k.day, horizon).is_some()).collect()
    }

    /// Replays the keys' lines through the weekly encoder's routine and
    /// hands key `i`'s row to `put(i, row, label)`, one value per column of
    /// `cols` — the one loop behind the row and lane writers.
    ///
    /// The keys are visited by `(line, day)`. At each new line one reused
    /// `LineState` is cleared and loaded with the line's ticket days; at
    /// each key it receives the line's tests up to the key's day (skipping
    /// those already outside the key's window), and `encode_line_into`
    /// fills the row — the state a weekly ingest would hold on that day, so
    /// both encoders produce the same bytes. At most one line's window is
    /// copied at a time.
    fn replay(&self, keys: &[RowKey], cols: &[usize], mut put: impl FnMut(usize, &[f32], bool)) {
        nevermind_obs::counter_add!("features/rows_encoded", keys.len());
        let width = Self::base_meta().0.len();
        let lanes = ts_lanes(cols);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i].line, keys[i].day));
        let mut scratch = vec![f32::NAN; width];
        let mut row = vec![0.0f32; cols.len()];
        let mut st = LineState::default();
        let (mut current, mut next_test) = (None, 0);
        for i in order {
            let RowKey { line, day } = keys[i];
            assert_eq!(day % 7, 6, "prediction day {day} is not a Saturday");
            let tests = self.measurements.all(line);
            if current != Some(line) {
                current = Some(line);
                st.clear();
                for &d in self.tickets.days(line) {
                    st.push_ticket(d);
                }
                next_test = 0;
            }
            let window_start = self.config.window_start(day);
            while let Some(t) = tests.get(next_test).filter(|t| t.day <= day) {
                if t.day >= window_start {
                    st.push_test(line, t.day, t.values);
                }
                next_test += 1;
            }
            let label = encode_line_into(
                &self.lines[line.index()],
                &mut st,
                day,
                window_start,
                cols,
                &lanes,
                &self.config,
                &mut scratch,
                &mut row,
            );
            put(i, &row, label);
        }
    }
}

/// The `cust:days_since_ticket` value from the most recent ticket at or
/// before `day`.
pub(crate) fn days_since_ticket(last_ticket: Option<u32>, day: u32) -> u32 {
    match last_ticket {
        Some(t) => (day + 1 - t).min(365),
        None => 365,
    }
}

/// Everything in a base row except the time-series z-score block: basic,
/// delta, profile, ticket-recency and modem-off features. `encode_line_into`
/// calls it, then fills the z-scores.
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
    let window_start = config.window_start(day);

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

/// Every quadratic over the continuous columns of a base space `meta`.
pub fn all_quadratics(meta: &[FeatureMeta]) -> Vec<DerivedFeature> {
    continuous(meta).map(|col| DerivedFeature::Quadratic { col }).collect()
}

/// Every pairwise product over the continuous columns of a base space
/// `meta` (`a < b`).
pub fn all_products(meta: &[FeatureMeta]) -> Vec<DerivedFeature> {
    let continuous: Vec<usize> = continuous(meta).collect();
    let mut out = Vec::with_capacity(continuous.len() * continuous.len().saturating_sub(1) / 2);
    for (ai, &a) in continuous.iter().enumerate() {
        for &b in &continuous[ai + 1..] {
            out.push(DerivedFeature::Product { a, b });
        }
    }
    out
}

/// The continuous columns of a base space `meta`.
fn continuous(meta: &[FeatureMeta]) -> impl Iterator<Item = usize> + '_ {
    meta.iter().enumerate().filter(|(_, m)| m.kind == FeatureKind::Continuous).map(|(c, _)| c)
}

/// [`assemble`]'s feature space written one column at a time from lanes of
/// the base columns it reads, for a fit that bins its columns one by one
/// ([`nevermind_ml::boost::BStump::fit_columns`]): no assembled matrix is
/// built, and each lane is freed once the last column that reads it has
/// been written.
#[derive(Debug)]
pub struct AssembledLanes<'a> {
    cols: &'a [usize],
    derived: &'a [DerivedFeature],
    /// [`Self::reads`], and each one's lane until no column left reads it.
    reads: Vec<usize>,
    lanes: Vec<Option<Vec<f32>>>,
}

impl<'a> AssembledLanes<'a> {
    /// The base columns [`assemble`]`(_, cols, derived)` reads — `cols` and
    /// the derived features' operands — ascending and once each.
    pub fn reads(cols: &[usize], derived: &[DerivedFeature]) -> Vec<usize> {
        let operands = derived.iter().flat_map(|f| f.operands());
        let mut reads: Vec<usize> = cols.iter().copied().chain(operands).collect();
        reads.sort_unstable();
        reads.dedup();
        reads
    }

    /// The columns [`assemble`]`(base, cols, derived)` lays out, from
    /// `lanes[i]`, base column `Self::reads(cols, derived)[i]` on each row
    /// (as [`BaseEncoder::encode_lanes`] writes them).
    ///
    /// # Panics
    /// Panics unless there is one lane per read column.
    pub fn new(cols: &'a [usize], derived: &'a [DerivedFeature], lanes: Vec<Vec<f32>>) -> Self {
        let reads = Self::reads(cols, derived);
        assert_eq!(lanes.len(), reads.len(), "one lane per base column read");
        Self { cols, derived, reads, lanes: lanes.into_iter().map(Some).collect() }
    }

    /// Number of assembled columns: the base ones, then the derived ones.
    pub fn n_cols(&self) -> usize {
        self.cols.len() + self.derived.len()
    }

    /// Writes assembled column `j` into `out`, bit for bit column `j` of
    /// [`assemble`]'s matrix (the same base values, the same
    /// [`DerivedFeature::value`] arithmetic), then frees each lane it read
    /// that no later column reads. Columns are written in ascending order,
    /// as `fit_columns` asks for them.
    ///
    /// # Panics
    /// Panics if `j` is not below [`Self::n_cols`], if a lane it reads was
    /// freed, or if `out` is not one value per row.
    pub fn write(&mut self, j: usize, out: &mut [f32]) {
        match self.cols.get(j) {
            Some(&c) => out.copy_from_slice(self.lane(c)),
            None => self.derived[j - self.cols.len()].write_column(|c| self.lane(c), out),
        }
        for c in self.operands(j) {
            if !(j + 1..self.n_cols()).any(|k| self.operands(k).contains(&c)) {
                let i = self.reads.partition_point(|&r| r < c);
                self.lanes[i] = None;
            }
        }
    }

    /// The base columns assembled column `j` reads.
    fn operands(&self, j: usize) -> [usize; 2] {
        match self.cols.get(j) {
            Some(&c) => [c, c],
            None => self.derived[j - self.cols.len()].operands(),
        }
    }

    /// Base column `c`'s lane, while it is held.
    fn lane(&self, c: usize) -> &[f32] {
        let lane = self.lanes[self.reads.partition_point(|&r| r < c)].as_deref();
        assert!(lane.is_some(), "base column {c} was freed");
        lane.unwrap_or_default()
    }
}

/// The assembled feature space of a base encoding, built in one pass:
/// base columns `cols` (in order, repeats allowed), then one continuous
/// column per `derived` feature, named by [`DerivedFeature::name`] and
/// valued by [`DerivedFeature::value`] over the row's base values. The
/// labels are `base`'s.
///
/// # Panics
/// Panics if a column index is outside `base`.
pub fn assemble(base: &EncodedDataset, cols: &[usize], derived: &[DerivedFeature]) -> Dataset {
    let x = &base.data.x;
    let mut meta: Vec<FeatureMeta> = cols.iter().map(|&c| x.meta()[c].clone()).collect();
    meta.extend(derived.iter().map(|f| FeatureMeta::continuous(f.name(x.meta()))));
    let mut values = Vec::with_capacity(x.n_rows() * meta.len());
    for r in 0..x.n_rows() {
        let row = x.row(r);
        values.extend(cols.iter().map(|&c| row[c]));
        values.extend(derived.iter().map(|f| f.value(|c| row[c])));
    }
    Dataset::new(FeatureMatrix::new(x.n_rows(), meta, values), base.data.y.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::ids::{CrossboxId, DslamId};
    use nevermind_dslsim::profile::ServiceProfile;
    use nevermind_dslsim::{SimConfig, TicketCategory, World};
    use nevermind_ml::stats::RunningMoments;
    use proptest::prelude::*;

    /// The gather encoder the replay replaced, kept as the reference the
    /// one routine is checked against. Per key it looks the ingredients up
    /// in the indexes — the test on the day (`at`), the tests before it
    /// inside the window (`before` plus the window filter), the delta
    /// baseline, the last ticket at or before the day (`last_before`) and
    /// the first in the label window (`has_ticket_within`) — and computes
    /// each time-series z-score with its own `RunningMoments` pass.
    fn reference_encode_rows(enc: &BaseEncoder, keys: &[RowKey]) -> EncodedDataset {
        let (meta, classes) = BaseEncoder::base_meta();
        let (n_cols, cfg) = (meta.len(), &enc.config);
        let mut values = vec![f32::NAN; keys.len() * n_cols];
        let mut labels = Vec::with_capacity(keys.len());
        for (row, &RowKey { line, day }) in keys.iter().enumerate() {
            let tests = enc.measurements.all(line);
            let before = &tests[..tests.partition_point(|t| t.day < day)];
            let cur = tests.get(before.len()).filter(|t| t.day == day).map(|t| &t.values);
            let prev = before
                .last()
                .filter(|t| day - t.day <= cfg.delta_max_lookback_days)
                .map(|t| &t.values);
            let window_start = day.saturating_sub(cfg.history_weeks as u32 * 7);
            let history: Vec<&[f32; N_METRICS]> =
                before.iter().filter(|t| t.day >= window_start).map(|t| &t.values).collect();
            let ticket_days = enc.tickets.days(line);
            let last_ticket =
                ticket_days.partition_point(|&d| d <= day).checked_sub(1).map(|i| ticket_days[i]);

            let slot = &mut values[row * n_cols..(row + 1) * n_cols];
            let days_since = days_since_ticket(last_ticket, day);
            let profile_line = &enc.lines[line.index()];
            fill_row_except_ts(profile_line, day, cur, prev, history.len(), days_since, cfg, slot);
            if let Some(cur) = cur.filter(|_| history.len() >= cfg.min_history_tests) {
                for i in 0..N_METRICS {
                    let mut mom = RunningMoments::new();
                    for t in &history {
                        mom.push(f64::from(t[i]));
                    }
                    let (c, sd) = (f64::from(cur[i]), mom.std_dev());
                    let z = if sd > 1e-6 {
                        (c - mom.mean()) / sd
                    } else if (c - mom.mean()).abs() < 1e-6 {
                        0.0
                    } else {
                        f64::NAN
                    };
                    slot[2 * N_METRICS + i] = z as f32;
                }
            }
            labels.push(enc.tickets.first_within(line, day, cfg.horizon_days).is_some());
        }
        EncodedDataset {
            data: Dataset::new(FeatureMatrix::new(keys.len(), meta, values), labels),
            rows: keys.to_vec(),
            classes,
        }
    }

    fn assert_same_bits(got: &EncodedDataset, want: &EncodedDataset) {
        assert_eq!(got.rows, want.rows, "row keys");
        assert_eq!(got.data.y, want.data.y, "labels");
        assert_eq!(got.classes, want.classes, "classes");
        for r in 0..want.data.len() {
            for c in 0..want.data.x.n_cols() {
                let (g, w) = (got.data.x.get(r, c), want.data.x.get(r, c));
                assert_eq!(g.to_bits(), w.to_bits(), "row {r} col {c}: {g} vs {w}");
            }
        }
    }

    const N_LINES: u32 = 5;

    fn plant() -> Vec<Line> {
        (0..N_LINES)
            .map(|i| Line {
                id: LineId(i),
                dslam: DslamId(0),
                crossbox: CrossboxId(0),
                loop_length_ft: 2_500.0 + 1_500.0 * f64::from(i),
                profile: ServiceProfile::ALL[i as usize % 3],
                has_bridge_tap: i % 2 == 0,
            })
            .collect()
    }

    /// Sparse tests in random order, one per (line, day): mostly on
    /// Saturdays, some on other weekdays. A quarter of the values are NaN
    /// holes; the last five lanes are constant, the rest take a few levels.
    fn test_log() -> impl Strategy<Value = Vec<LineTest>> {
        let day = prop_oneof![3 => (0u32..37).prop_map(|w| w * 7 + 6), 1 => 0u32..260];
        prop::collection::vec((0..N_LINES, day, 0u8..4, any::<u64>()), 0..90).prop_map(|raw| {
            let mut seen = std::collections::BTreeSet::new();
            raw.into_iter()
                .filter(|&(l, d, ..)| seen.insert((l, d)))
                .map(|(l, d, level, bits)| {
                    let mut values = [0.0f32; N_METRICS];
                    for (i, v) in values.iter_mut().enumerate() {
                        let b = bits >> (2 * i);
                        *v = match (b & 3, i < 20) {
                            (0, _) => f32::NAN,
                            (_, true) => f32::from(level) * 1.3 + (b & 2) as f32 * 0.7 - i as f32,
                            (_, false) => i as f32 * 0.5,
                        };
                    }
                    LineTest { line: LineId(l), day: d, values }
                })
                .collect()
        })
    }

    fn ticket_log() -> impl Strategy<Value = Vec<Ticket>> {
        use TicketCategory::{CustomerEdge, NonTechnical, Outage};
        prop::collection::vec((0..N_LINES, 0u32..320, 0usize..3), 0..30).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (l, day, c))| Ticket {
                    id: i as u32,
                    line: LineId(l),
                    day,
                    category: [CustomerEdge, Outage, NonTechnical][c],
                })
                .collect()
        })
    }

    /// Encoder configs whose delta look-back fits inside the window.
    fn config() -> impl Strategy<Value = EncoderConfig> {
        (1usize..=30, 0usize..=6, 1u32..=60, any::<u32>()).prop_map(
            |(history_weeks, min_history_tests, horizon_days, pick)| EncoderConfig {
                horizon_days,
                history_weeks,
                min_history_tests,
                delta_max_lookback_days: pick % (history_weeks as u32 * 7 + 1),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `encode_rows` and `encode` replay each line through the weekly
        /// encoder's routine; both must match the gather reference bit for
        /// bit, for keys in any order (repeats included) from week 0 to past
        /// the last test.
        #[test]
        fn replay_matches_gather_reference(
            tests in test_log(),
            tickets in ticket_log(),
            cfg in config(),
            keys in prop::collection::vec((0..N_LINES, 0u32..42), 0..40),
            weeks in prop::collection::vec(0u32..42, 0..4),
        ) {
            let lines = plant();
            let enc = BaseEncoder::new(&lines, &tests, &tickets, cfg);
            let keys: Vec<RowKey> =
                keys.iter().map(|&(l, w)| RowKey { line: LineId(l), day: w * 7 + 6 }).collect();
            assert_same_bits(&enc.encode_rows(&keys), &reference_encode_rows(&enc, &keys));

            let days: Vec<u32> = weeks.iter().map(|w| w * 7 + 6).collect();
            let sweep: Vec<RowKey> = days
                .iter()
                .flat_map(|&day| lines.iter().map(move |l| RowKey { line: l.id, day }))
                .collect();
            assert_same_bits(&enc.encode(&days), &reference_encode_rows(&enc, &sweep));
        }

        /// Each lane `encode_lanes` writes is, bit for bit, its column of
        /// `encode_rows` over the same keys — `NaN` payloads and
        /// time-series lanes included — for empty, full and repeated column
        /// sets and keys in any order (repeats included); both writers'
        /// labels are the ticket index's `labels`.
        #[test]
        fn lanes_are_the_columns_of_the_rows(
            tests in test_log(),
            tickets in ticket_log(),
            cfg in config(),
            keys in prop::collection::vec((0..N_LINES, 0u32..42), 0..40),
            cols in prop::collection::vec(0..3 * N_METRICS + 7, 0..120),
            payload in any::<u32>(),
        ) {
            // Every hole carries its own NaN payload, which a copy must keep.
            let mut next = payload;
            let tests: Vec<LineTest> = tests
                .into_iter()
                .map(|mut t| {
                    for v in t.values.iter_mut().filter(|v| v.is_nan()) {
                        next = next.wrapping_mul(0x9E37_79B9).wrapping_add(1);
                        *v = f32::from_bits(0xFFC0_0000 | (next >> 10));
                    }
                    t
                })
                .collect();
            let lines = plant();
            let enc = BaseEncoder::new(&lines, &tests, &tickets, cfg);
            let keys: Vec<RowKey> =
                keys.iter().map(|&(l, w)| RowKey { line: LineId(l), day: w * 7 + 6 }).collect();
            let rows = enc.encode_rows(&keys);
            prop_assert_eq!(&enc.labels(&keys), &rows.data.y);
            let full: Vec<usize> = (0..rows.data.x.n_cols()).collect();
            for cols in [&cols, &full] {
                let (lanes, labels) = enc.encode_lanes(&keys, cols);
                prop_assert_eq!(&labels, &rows.data.y);
                prop_assert_eq!(lanes.len(), cols.len());
                for (lane, &c) in lanes.iter().zip(cols.iter()) {
                    let want: Vec<u32> = rows.data.x.column(c).map(f32::to_bits).collect();
                    let got: Vec<u32> = lane.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, want, "column {}", c);
                }
            }
        }
    }

    #[test]
    fn delta_baseline_stays_inside_the_window() {
        // A look-back longer than the one-week window: the test two weeks
        // back is outside the window, so it is no delta baseline — in the
        // batch encoder as in the weekly one.
        let lines = plant();
        let tests: Vec<LineTest> = [6, 20]
            .iter()
            .map(|&day| LineTest { line: LineId(0), day, values: [day as f32; N_METRICS] })
            .collect();
        let cfg = EncoderConfig {
            history_weeks: 1,
            delta_max_lookback_days: 21,
            ..EncoderConfig::default()
        };
        let batch = BaseEncoder::new(&lines, &tests, &[], cfg.clone()).encode(&[20]);
        let mut weekly = crate::IncrementalEncoder::new(&lines, cfg);
        weekly.ingest(&tests, &[]);
        let weekly = weekly.encode_day(20);
        assert_eq!(batch.data.x.get(0, 0), 20.0, "the day's own test is current");
        assert!(batch.data.x.get(0, N_METRICS).is_nan(), "no baseline inside the window");
        assert_same_bits(&batch, &weekly);
    }

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

    /// `assemble` lays out the selected base columns (repeats allowed),
    /// then the derived columns; every cell, name and label is checked
    /// against its definition.
    #[test]
    fn derived_columns_compute_squares_and_products() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        let cols = [2 * N_METRICS + 3, 1, 1];
        let feats = [DerivedFeature::Quadratic { col: 1 }, DerivedFeature::Product { a: 1, b: 2 }];
        let assembled = assemble(&ds, &cols, &feats);
        let (x, meta) = (&assembled.x, ds.data.x.meta());
        assert_eq!(x.n_cols(), cols.len() + feats.len());
        assert_eq!(assembled.y, ds.data.y, "labels");
        for (j, &c) in cols.iter().enumerate() {
            assert_eq!(x.meta()[j], meta[c], "base column {j}");
        }
        let names: Vec<&str> = x.meta()[cols.len()..].iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["quad:basic:dnbr^2", "prod:basic:dnbr*basic:upbr"]);
        assert!(x.meta()[cols.len()..].iter().all(|m| m.kind == FeatureKind::Continuous));
        let mut saw_missing = false;
        for r in 0..ds.data.len() {
            let base = ds.data.x.row(r);
            let row = x.row(r);
            for (j, &c) in cols.iter().enumerate() {
                assert_eq!(row[j].to_bits(), base[c].to_bits(), "row {r} base column {j}");
            }
            for (j, f) in feats.iter().enumerate() {
                let want = f.value(|c| base[c]);
                assert_eq!(row[cols.len() + j].to_bits(), want.to_bits(), "row {r} derived {j}");
            }
            let (a, b) = (base[1], base[2]);
            saw_missing |= a.is_nan();
            assert_eq!(row[3].is_nan(), a.is_nan(), "row {r}: a missing factor stays missing");
            assert_eq!(row[4].is_nan(), a.is_nan() || b.is_nan(), "row {r}");
            if !a.is_nan() && !b.is_nan() {
                assert_eq!((row[3], row[4]), (a * a, a * b), "row {r}");
            }
        }
        assert!(saw_missing, "some modem was off that Saturday");
    }

    /// `AssembledLanes` holds only the lanes its columns read and frees
    /// each after its last reader: a base column selected twice stays
    /// until its repeat, a selected time-series column stays until the
    /// quadratic that squares it, the two unselected factors of a product
    /// are held for it alone, and a base column no column reads is never
    /// encoded. Every written column is `assemble`'s, bit for bit.
    #[test]
    fn assembled_lanes_free_each_lane_after_its_last_reader() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let keys = enc.keys(&[20 * 7 + 6, 21 * 7 + 6]);
        let n = N_METRICS;
        let (ts, unread) = (2 * n + 3, 2 * n + 9);
        let cols = [1, ts, 1, 0];
        let derived =
            [DerivedFeature::Quadratic { col: ts }, DerivedFeature::Product { a: 5, b: n + 2 }];
        let reads = AssembledLanes::reads(&cols, &derived);
        assert_eq!(reads, [0, 1, 5, n + 2, ts]);
        assert!(!reads.contains(&unread));

        let (lanes, labels) = enc.encode_lanes(&keys, &reads);
        let base = enc.encode_rows(&keys);
        assert_eq!(labels, base.data.y);
        let assembled = assemble(&base, &cols, &derived);
        let mut columns = AssembledLanes::new(&cols, &derived, lanes);
        // The base columns whose lanes are still held.
        let held = |c: &AssembledLanes| -> Vec<usize> {
            c.reads.iter().zip(&c.lanes).filter(|(_, l)| l.is_some()).map(|(&c, _)| c).collect()
        };
        assert_eq!(columns.n_cols(), assembled.x.n_cols());
        assert_eq!(held(&columns), reads);
        let held_after: [&[usize]; 6] = [
            &[0, 1, 5, n + 2, ts],
            &[0, 1, 5, n + 2, ts],
            &[0, 5, n + 2, ts],
            &[5, n + 2, ts],
            &[5, n + 2],
            &[],
        ];
        let mut column = vec![0.0f32; keys.len()];
        for (j, want_held) in held_after.into_iter().enumerate() {
            columns.write(j, &mut column);
            let want: Vec<u32> = assembled.x.column(j).map(f32::to_bits).collect();
            let got: Vec<u32> = column.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "column {j}");
            assert_eq!(held(&columns), want_held, "lanes held after column {j}");
        }
        assert!(base.data.x.column(unread).any(|v| !v.is_nan()), "the unread lane has values");
    }

    /// A label horizon or history window past the `u32` day range covers
    /// the whole range, in the batch replay and the weekly encoder alike:
    /// with an unbounded horizon a row is positive when its line has any
    /// later customer-edge ticket, and every oversized window encodes the
    /// rows a window reaching back to day 0 does.
    #[test]
    fn day_windows_saturate_at_the_end_of_the_day_range() {
        let (lines, out) = sim();
        let day = 15 * 7 + 6;
        let encode = |cfg: &EncoderConfig| {
            let batch = BaseEncoder::new(&lines, &out.measurements, &out.tickets, cfg.clone())
                .encode(&[day]);
            let mut weekly = crate::IncrementalEncoder::new(&lines, cfg.clone());
            weekly.ingest(&out.measurements, &out.tickets);
            assert_same_bits(&weekly.encode_day(day), &batch);
            batch
        };
        let unbounded = EncoderConfig { horizon_days: u32::MAX, ..EncoderConfig::default() };
        let ds = encode(&unbounded);
        for (row, key) in ds.rows.iter().enumerate() {
            let later = out.customer_edge_tickets().any(|t| t.line == key.line && t.day > day);
            assert_eq!(ds.data.y[row], later, "line {}", key.line);
        }
        assert!(ds.data.n_positive() > 0, "some line has a later ticket");

        let whole_run = encode(&EncoderConfig { history_weeks: 10_000, ..unbounded.clone() });
        for history_weeks in [613_566_757, u32::MAX as usize, usize::MAX] {
            let cfg = EncoderConfig { history_weeks, ..unbounded.clone() };
            assert_eq!(cfg.window_start(day), 0, "{history_weeks} weeks");
            assert_same_bits(&encode(&cfg), &whole_run);
        }
    }

    #[test]
    fn derived_enumerations_cover_continuous_columns() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        let n_cont = ds.data.x.meta().iter().filter(|m| m.kind == FeatureKind::Continuous).count();
        assert_eq!(all_quadratics(ds.data.x.meta()).len(), n_cont);
        assert_eq!(all_products(ds.data.x.meta()).len(), n_cont * (n_cont - 1) / 2);
    }

    #[test]
    fn base_columns_are_all_base() {
        let (lines, out) = sim();
        let enc =
            BaseEncoder::new(&lines, &out.measurements, &out.tickets, EncoderConfig::default());
        let ds = enc.encode(&[20 * 7 + 6]);
        assert_eq!(ds.classes.len(), ds.data.x.n_cols());
        assert!(ds.classes.iter().all(|c| c.is_history() || c.is_customer()));
    }
}
