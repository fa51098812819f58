//! The incremental weekly scoring engine behind the operational loop.
//!
//! Every Saturday the proactive policy re-ranks the entire line population
//! with the (fixed, already-trained) ticket predictor and dispatches the
//! top-`B`. Done naively — clone the accumulated logs, rebuild the
//! encoder's indexes, walk every stump for every row, fully sort the
//! population — the weekly cost grows with elapsed time and is dominated by
//! work whose result never changes.
//!
//! [`WeeklyScorer`] glues together the incremental pieces:
//!
//! * [`IncrementalEncoder`] — per-line rolling state fed only the *new*
//!   log events each week ([`WeeklyScorer::ingest`]: the trial moves each
//!   week's tests out of the live world; [`WeeklyScorer::observe`] reads
//!   growing logs from a cursor; nothing is cloned);
//! * [`FeatureStore`] — the engine's single per-week materialization: the
//!   encoder writes the week's tracked base columns into the store's
//!   lane-major frame once, and every downstream reader — stump scoring,
//!   telemetry PSI binning, provenance re-expansion — borrows lane slices
//!   from that same frame instead of keeping its own copy;
//! * `CompiledPredictor` — the one scoring path. It holds the predictor's
//!   stump ensemble compiled into per-stump bin→score lookup tables
//!   ([`BatchScorer`]) and, per column the ensemble reads, where that
//!   column comes from in the base feature space: a base column, or a
//!   quadratic or product of base columns. Its caller only says where the
//!   base values live — the store's lanes here; a row-major base matrix in
//!   [`TicketPredictor::rank_encoded`] and in the calibration step of
//!   training — and the plan gathers each used column block by block into
//!   [`BatchScorer::margins_gather_parallel`]. No assembled matrix is
//!   built;
//! * partial top-`B` selection — [`RankedPredictions::top_rows`] selects
//!   the budgeted head without sorting the whole population.
//!
//! The plan hands each column exactly the values the assembled matrix of
//! `nevermind_features::encode::assemble` holds (a missing factor is `NaN`
//! on both paths, and a stump abstains on any `NaN`), and the batch scorer
//! is bit-identical to [`nevermind_ml::boost::BStump::margins`] — so a
//! [`WeeklyScorer`] ranking is exactly what [`TicketPredictor::rank`]
//! produces over the same logs, pinned by the tests below.
//!
//! The store also makes the weekly loop checkpointable:
//! [`WeeklyScorer::preload_frame`] queues frames imported from a
//! `nevermind-store/v1` document, and [`WeeklyScorer::rank_week`] adopts a
//! queued frame in place of encoding when the days match — reproducing the
//! uninterrupted run's rankings byte-for-byte (the frame carries exactly
//! the values and labels the encoder would have produced).

use crate::predictor::{RankedPredictions, TicketPredictor};
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineTest, Ticket};
use nevermind_features::encode::RowKey;
use nevermind_features::{DerivedFeature, FeatureStore, IncrementalEncoder, Retention, WeekFrame};
use nevermind_ml::boost::BStump;
use nevermind_ml::data::FeatureMatrix;
use nevermind_ml::score::BatchScorer;
use std::collections::VecDeque;
use std::ops::Range;

/// Where a column the ensemble reads comes from in the base feature space.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A selected base column, verbatim.
    Base(usize),
    /// A quadratic or product of base columns.
    Derived(DerivedFeature),
}

/// A predictor's stump ensemble compiled for population scoring, with a
/// gather plan from each column it reads back to the base columns that
/// column is built from.
#[derive(Debug)]
pub(crate) struct CompiledPredictor {
    scorer: BatchScorer,
    /// Per used slot ([`BatchScorer::used_columns`] order): its column in
    /// the assembled space and that column's base-space source.
    slots: Vec<(usize, Source)>,
    /// Width of the assembled space.
    n_assembled: usize,
}

impl CompiledPredictor {
    /// Compiles `model`, trained on the space `assemble(base,
    /// selected_base, selected_derived)` builds.
    ///
    /// # Panics
    /// Panics if a stump reads a column outside that space (a validated or
    /// freshly fitted predictor never does).
    pub(crate) fn new(
        model: &BStump,
        selected_base: &[usize],
        selected_derived: &[DerivedFeature],
    ) -> Self {
        let scorer = BatchScorer::new(model);
        let n_base = selected_base.len();
        let slots = scorer
            .used_columns()
            .map(|c| match selected_base.get(c) {
                Some(&col) => (c, Source::Base(col)),
                None => (c, Source::Derived(selected_derived[c - n_base])),
            })
            .collect();
        Self { scorer, slots, n_assembled: n_base + selected_derived.len() }
    }

    /// The base columns the plan reads, ascending and without repeats.
    pub(crate) fn base_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .slots
            .iter()
            .flat_map(|&(_, src)| match src {
                Source::Base(c) | Source::Derived(DerivedFeature::Quadratic { col: c }) => [c, c],
                Source::Derived(DerivedFeature::Product { a, b }) => [a, b],
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Margins of `n_rows` rows, spread over `parts` `nevermind_obs::par`
    /// parts (`0` = every core; bit-identical for any count). The caller's
    /// `base(col, rows, out, multiply)` writes base column `col` for
    /// `rows` into `out` (`NaN` = missing), or multiplies it into `out`
    /// when `multiply` is set. A quadratic writes its column and multiplies
    /// it in again; a product writes `a` and multiplies `b` in.
    pub(crate) fn margins<F>(&self, n_rows: usize, parts: usize, base: &F) -> Vec<f64>
    where
        F: Fn(usize, Range<usize>, &mut [f32], bool) + Sync,
    {
        let fill = |slot: usize, rows: Range<usize>, out: &mut [f32]| match self.slots[slot].1 {
            Source::Base(c) => base(c, rows, out, false),
            Source::Derived(DerivedFeature::Quadratic { col }) => {
                base(col, rows.clone(), out, false);
                base(col, rows, out, true);
            }
            Source::Derived(DerivedFeature::Product { a, b }) => {
                base(a, rows.clone(), out, false);
                base(b, rows, out, true);
            }
        };
        self.scorer.margins_gather_parallel(n_rows, parts, &fill)
    }

    /// [`Self::margins`] of every row of a row-major base-space matrix, on
    /// every core.
    pub(crate) fn matrix_margins(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.margins(x.n_rows(), 0, &matrix_base(x))
    }

    /// One row of the assembled space, given the row's base values by
    /// column: the columns the ensemble reads hold their assembled values
    /// (so the row's margin is the ranked one, bit for bit), and every
    /// other column — no stump reads it, its contribution is zero — `NaN`.
    pub(crate) fn assembled_row(&self, value: impl Fn(usize) -> f32) -> Vec<f32> {
        let mut row = vec![f32::NAN; self.n_assembled];
        for &(col, src) in &self.slots {
            row[col] = match src {
                Source::Base(c) => value(c),
                Source::Derived(d) => d.value(&value),
            };
        }
        row
    }
}

/// Streaming population ranker for the weekly proactive loop.
pub struct WeeklyScorer<'a> {
    predictor: &'a TicketPredictor,
    lines: &'a [Line],
    encoder: IncrementalEncoder<'a>,
    /// The predictor's compiled scoring plan; the store tracks (at least)
    /// every base column it reads.
    plan: CompiledPredictor,
    /// The week-major columnar store every reader borrows from.
    store: FeatureStore,
    /// Checkpointed frames waiting to be adopted, ascending by day.
    pending: VecDeque<WeekFrame>,
    /// The `nevermind_obs::par` part count of every weekly stage (`0`, the
    /// default, = every core). Pure execution policy: every stage is
    /// bit-identical across settings.
    shards: usize,
    meas_cursor: usize,
    ticket_cursor: usize,
}

impl<'a> WeeklyScorer<'a> {
    /// Builds the engine for a trained predictor over a fixed plant. The
    /// predictor is compiled to its scoring plan here, once; the store
    /// tracks exactly the base columns the plan reads (until
    /// [`WeeklyScorer::track_columns`] widens it) — the full assembled
    /// feature space is never materialised per week.
    pub fn new(predictor: &'a TicketPredictor, lines: &'a [Line]) -> Self {
        let plan = CompiledPredictor::new(
            predictor.model(),
            predictor.selected_base(),
            predictor.selected_derived(),
        );
        let store =
            FeatureStore::new(lines.len(), &plan.base_columns(), predictor.encoder_config());
        Self {
            predictor,
            lines,
            encoder: IncrementalEncoder::new(lines, predictor.encoder_config().clone()),
            plan,
            store,
            pending: VecDeque::new(),
            shards: 0,
            meas_cursor: 0,
            ticket_cursor: 0,
        }
    }

    /// Widens the store to additionally track the given base columns —
    /// how the model-health monitor gets its watched features into the
    /// weekly frame so it can bin them without a second encode. The lane
    /// set (and with it the store's exported bytes) is the sorted union of
    /// the ensemble's needs and these extras.
    ///
    /// # Panics
    /// Panics if a week has already been ranked or preloaded — the lane
    /// layout must be fixed before the first frame exists.
    pub fn track_columns(&mut self, cols: &[usize]) {
        assert!(
            self.store.frames().is_empty() && self.pending.is_empty(),
            "track columns before the first ranked or preloaded week"
        );
        let mut all: Vec<usize> = self.store.cols().to_vec();
        all.extend_from_slice(cols);
        all.sort_unstable();
        all.dedup();
        let retention = self.store.retention();
        self.store = FeatureStore::new(self.lines.len(), &all, self.predictor.encoder_config());
        self.store.set_retention(retention);
    }

    /// Sets the store's frame retention ([`Retention::Latest`] by default;
    /// [`Retention::All`] keeps every ranked week for checkpoint export).
    pub fn set_retention(&mut self, retention: Retention) {
        self.store.set_retention(retention);
    }

    /// The engine's feature store (its lanes, frames, and export).
    pub fn store(&self) -> &FeatureStore {
        &self.store
    }

    /// Consumes the engine, yielding the store — how a checkpointing trial
    /// takes the retained frames without copying them.
    pub fn into_store(self) -> FeatureStore {
        self.store
    }

    /// Queues a checkpointed frame for adoption: when
    /// [`WeeklyScorer::rank_week`] reaches the frame's day it uses the
    /// frame instead of encoding, skipping the encode cost and reproducing
    /// the checkpointed run's ranking bit-for-bit. Frames whose day the
    /// loop has already passed are silently discarded at rank time.
    ///
    /// # Panics
    /// Panics if the frame's shape does not match the store's lanes and
    /// population, its day is not a Saturday, or preloads are not ascending
    /// by day.
    pub fn preload_frame(&mut self, frame: WeekFrame) {
        assert_eq!(frame.n_lines(), self.lines.len(), "preloaded frame must cover the plant");
        assert!(
            frame.n_lines() == 0 || frame.n_lanes() == self.store.n_lanes(),
            "preloaded frame must carry one lane per tracked column"
        );
        assert_eq!(frame.day() % 7, 6, "preloaded frame day {} is not a Saturday", frame.day());
        if let Some(back) = self.pending.back() {
            assert!(
                frame.day() > back.day(),
                "preloaded frames must ascend by day ({} after {})",
                frame.day(),
                back.day()
            );
        }
        self.pending.push_back(frame);
    }

    /// Sets how many `nevermind_obs::par` parts every weekly stage
    /// (ingest, encode, margins, top-`B`) is spread over: `0` (the
    /// default) means one per available core, `n` means `n`. Rankings are
    /// bit-identical for every setting — shard count is an execution
    /// detail, pinned by the equivalence tests below.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// Ingests one batch of fresh log records: tests and tickets that no
    /// earlier call passed, in log order. The proactive trial hands it each
    /// Saturday's tests moved out of the live world
    /// (`World::take_measurements`), so no ingested test stays resident.
    ///
    /// # Panics
    /// Panics if a line's tests arrive out of day order.
    pub fn ingest(&mut self, measurements: &[LineTest], tickets: &[Ticket]) {
        let _span = nevermind_obs::span!("weekly/observe");
        self.encoder.ingest_sharded(measurements, tickets, self.shards);
    }

    /// [`Self::ingest`] of whatever the logs have accrued since the last
    /// call. Pass the full (growing) log slices each week; internal cursors
    /// skip everything already seen, so only the fresh suffix is ingested.
    ///
    /// # Panics
    /// Panics if a log slice shrank since the previous call.
    pub fn observe(&mut self, measurements: &[LineTest], tickets: &[Ticket]) {
        assert!(
            measurements.len() >= self.meas_cursor && tickets.len() >= self.ticket_cursor,
            "logs must only grow between observations"
        );
        self.ingest(&measurements[self.meas_cursor..], &tickets[self.ticket_cursor..]);
        self.meas_cursor = measurements.len();
        self.ticket_cursor = tickets.len();
    }

    /// Encodes and ranks the whole population at the given Saturday, from
    /// rolling state. Equivalent to [`TicketPredictor::rank`] over the
    /// observed logs, at a per-week cost independent of elapsed time.
    ///
    /// The encoder writes each line straight into the store's tracked
    /// lanes for the week (one frame, the week's only materialization;
    /// time-series z-score lanes are independent Welford streams, so the
    /// subset stays bit-identical per column) — or, if a
    /// checkpointed frame for this day was preloaded, that frame is
    /// adopted and the encode skipped. The compiled plan then scores the
    /// frame: each base column it asks for is read from (or multiplied in
    /// from) that column's lane, with missing bits restoring the encoder's
    /// `NaN` — the path [`TicketPredictor::rank`] scores a base matrix by,
    /// so the margins stay bit-identical to the batch ranking. No per-week
    /// matrix is materialised, traced or not.
    pub fn rank_week(&mut self, day: u32) -> RankedPredictions {
        let _span = nevermind_obs::span!("weekly/rank_week");
        while self.pending.front().is_some_and(|f| f.day() < day) {
            self.pending.pop_front();
        }
        if self.pending.front().is_some_and(|f| f.day() == day) {
            // lint:allow(no-panic-in-lib) -- the front's presence was checked on the line above
            let frame = self.pending.pop_front().expect("front frame checked");
            nevermind_obs::counter_add!("weekly/frames_adopted", 1);
            self.store.adopt_frame(frame);
        } else {
            self.encoder.encode_week_into(day, self.shards, &mut self.store);
        }
        let n_rows = self.lines.len();
        nevermind_obs::counter_add!("weekly/lines_scored", n_rows);
        // lint:allow(no-panic-in-lib) -- this week's frame was ingested or adopted just above
        let frame = self.store.latest().expect("frame for the ranked week");
        let margins = self.plan.margins(n_rows, self.shards, &lane_base(&self.store, frame));
        let probabilities = self.predictor.calibration().probabilities(&margins);
        let rows: Vec<RowKey> = self.lines.iter().map(|l| RowKey { line: l.id, day }).collect();
        RankedPredictions::from_scores(rows, probabilities, frame.labels_vec())
    }

    /// Re-expands row `row` of the most recent [`Self::rank_week`] frame
    /// into the predictor's assembled feature space, for
    /// [`TicketPredictor::explain`]. Columns the ensemble never reads come
    /// back as `NaN` (no stump touches them, so their contribution is
    /// exactly zero); used columns are rebuilt from the store's lanes by
    /// the plan the week's margins were computed with, so the reconstructed
    /// margin is bit-identical to the ranking's. Returns `None` before the
    /// first ranked week or when `row` is out of range.
    pub fn traced_assembled_row(&self, row: usize) -> Option<Vec<f32>> {
        let frame = self.store.latest()?;
        if row >= frame.n_lines() {
            return None;
        }
        Some(self.plan.assembled_row(|c| frame.value(lane_of(&self.store, c), row)))
    }
}

/// The plan's base values from a row-major base-space matrix.
fn matrix_base(x: &FeatureMatrix) -> impl Fn(usize, Range<usize>, &mut [f32], bool) + Sync + '_ {
    move |col, rows, out, multiply| {
        for (o, r) in out.iter_mut().zip(rows) {
            let v = x.get(r, col);
            *o = if multiply { *o * v } else { v };
        }
    }
}

/// The plan's base values from `store`'s lanes in `frame`, with missing
/// bits restored to `NaN`.
fn lane_base<'s>(
    store: &'s FeatureStore,
    frame: &'s WeekFrame,
) -> impl Fn(usize, Range<usize>, &mut [f32], bool) + Sync + 's {
    move |col, rows, out, multiply| {
        let lane = lane_of(store, col);
        if multiply {
            frame.mul_restored(lane, rows, out);
        } else {
            frame.fill_restored(lane, rows, out);
        }
    }
}

/// The store lane holding base column `col`.
fn lane_of(store: &FeatureStore, col: usize) -> usize {
    // lint:allow(no-panic-in-lib) -- the store tracks every base column the plan reads
    store.lane_of(col).expect("store tracks every plan column")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ExperimentData, SplitSpec};
    use crate::predictor::PredictorConfig;
    use nevermind_dslsim::{LineId, SimConfig};
    use nevermind_features::encode::{assemble, EncodedDataset, EncoderConfig};
    use nevermind_features::FeatureClass;
    use nevermind_ml::boost::BoostConfig;
    use nevermind_ml::data::{Dataset, FeatureMeta};
    use proptest::prelude::*;

    const N_BASE: usize = 6;

    const MAX_ROWS: usize = 160;

    /// A base-space dataset of 20 to 159 rows on a coarse grid, so many
    /// values equal a stump threshold, with `±0` and `NaN` holes.
    fn base_dataset() -> impl Strategy<Value = EncodedDataset> {
        let value = prop_oneof![
            1 => Just(f32::NAN),
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            6 => (-8i32..8).prop_map(|k| k as f32 / 4.0),
        ];
        let cells = MAX_ROWS * N_BASE;
        (
            20..MAX_ROWS,
            prop::collection::vec(value, cells..cells + 1),
            prop::collection::vec(any::<bool>(), MAX_ROWS..MAX_ROWS + 1),
        )
            .prop_map(|(n_rows, mut values, mut labels)| {
                values.truncate(n_rows * N_BASE);
                labels.truncate(n_rows);
                let meta = (0..N_BASE).map(|c| FeatureMeta::continuous(format!("b{c}"))).collect();
                EncodedDataset {
                    data: Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels),
                    rows: (0..n_rows).map(|r| RowKey { line: LineId(r as u32), day: 6 }).collect(),
                    classes: vec![FeatureClass::Basic; N_BASE],
                }
            })
    }

    /// Selected base columns (repeats allowed) and derived features over
    /// any base columns, so one column can be a base slot and a factor.
    /// At least one column is selected.
    fn selection() -> impl Strategy<Value = (Vec<usize>, Vec<DerivedFeature>)> {
        let derived = prop_oneof![
            (0..N_BASE).prop_map(|col| DerivedFeature::Quadratic { col }),
            (0..N_BASE, 0..N_BASE).prop_map(|(a, b)| DerivedFeature::Product { a, b }),
        ];
        (0..N_BASE, prop::collection::vec(0..N_BASE, 0..5), prop::collection::vec(derived, 0..5))
            .prop_map(|(first, mut base, derived)| {
                if base.is_empty() && derived.is_empty() {
                    base.push(first);
                }
                (base, derived)
            })
    }

    /// A model fitted on the assembled matrix of `base`.
    fn fit(assembled: &Dataset) -> BStump {
        let cfg = BoostConfig { n_bins: 8, parallel: false, ..BoostConfig::with_iterations(12) };
        BStump::fit(assembled, &cfg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The plan's margins are `BStump::margins` over the assembled
        /// matrix, bit for bit, at any part count, whether the base values
        /// come from a row-major matrix or from store lanes (the store
        /// widened by one more column, so lanes and columns differ).
        #[test]
        fn plan_margins_match_the_assembled_matrix(
            base in base_dataset(),
            (sel, der) in selection(),
            extra in 0..N_BASE,
        ) {
            let assembled = assemble(&base, &sel, &der);
            let model = fit(&assembled);
            // An empty ensemble sums to -0.0 per row but gathers to +0.0.
            if model.stumps().is_empty() {
                return;
            }
            let want = model.margins(&assembled.x);
            let plan = CompiledPredictor::new(&model, &sel, &der);
            let mut cols = plan.base_columns();
            cols.push(extra);
            cols.sort_unstable();
            cols.dedup();
            let n = base.data.len();
            let mut store = FeatureStore::new(n, &cols, &EncoderConfig::default());
            store.ingest_frame(6, &base.select_columns(&cols));
            let frame = store.latest().expect("frame just ingested");
            for parts in [1, 2, 7, 0] {
                let from_matrix = plan.margins(n, parts, &matrix_base(&base.data.x));
                let from_lanes = plan.margins(n, parts, &lane_base(&store, frame));
                for (r, w) in want.iter().enumerate() {
                    prop_assert_eq!(from_matrix[r].to_bits(), w.to_bits(), "matrix row {}", r);
                    prop_assert_eq!(from_lanes[r].to_bits(), w.to_bits(), "lanes row {}", r);
                }
            }
            prop_assert_eq!(plan.matrix_margins(&base.data.x), want);
        }

        /// `assembled_row` is the assembled matrix's row on every column a
        /// stump reads, and `NaN` on every other, so its margin is the row's.
        #[test]
        fn assembled_rows_match_the_assembled_matrix(
            base in base_dataset(),
            (sel, der) in selection(),
        ) {
            let assembled = assemble(&base, &sel, &der);
            let model = fit(&assembled);
            let used: Vec<usize> = model.stumps().iter().map(|s| s.feature).collect();
            let plan = CompiledPredictor::new(&model, &sel, &der);
            for r in 0..base.data.len() {
                let row = plan.assembled_row(|c| base.data.x.get(r, c));
                let want = assembled.x.row(r);
                prop_assert_eq!(row.len(), want.len());
                for (j, (g, w)) in row.iter().zip(want).enumerate() {
                    if used.contains(&j) {
                        prop_assert_eq!(g.to_bits(), w.to_bits(), "row {} column {}", r, j);
                    } else {
                        prop_assert!(g.is_nan(), "row {} unused column {} is {}", r, j, g);
                    }
                }
                prop_assert_eq!(model.margin(&row).to_bits(), model.margin(want).to_bits());
            }
        }
    }

    #[test]
    fn weekly_engine_matches_batch_ranking() {
        let data = ExperimentData::simulate(SimConfig::small(88));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = PredictorConfig {
            iterations: 40,
            selection_iterations: 4,
            n_base: 15,
            n_quadratic: 6,
            n_product: 6,
            selection_row_cap: 5_000,
            ..PredictorConfig::default()
        };
        let (predictor, _) =
            TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");

        let mut engine = WeeklyScorer::new(&predictor, &data.topology.lines);
        engine.observe(&data.output.measurements, &data.output.tickets);
        // A second engine pinned to seven parts on every stage — and
        // tracking extra telemetry lanes, which widens the store but must
        // not perturb the plan's values — must agree bit-for-bit with both
        // the every-core engine and the batch ranking.
        let mut sharded = WeeklyScorer::new(&predictor, &data.topology.lines);
        sharded.track_columns(&predictor.selected_base()[..4.min(predictor.selected_base().len())]);
        sharded.set_shards(7);
        sharded.observe(&data.output.measurements, &data.output.tickets);

        for &day in split.test_days.iter().take(2) {
            let batch = predictor.rank(&data, &[day]);
            let streaming = engine.rank_week(day);
            assert_eq!(batch.rows, streaming.rows, "day {day}: rows");
            assert_eq!(batch.labels, streaming.labels, "day {day}: labels");
            for (r, (a, b)) in batch.probabilities.iter().zip(&streaming.probabilities).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "day {day} row {r}: {a} vs {b}");
            }
            let budget = cfg.budget(batch.len());
            assert_eq!(batch.top_rows(budget), streaming.top_rows(budget), "day {day}");

            let shard_ranked = sharded.rank_week(day);
            assert_eq!(batch.rows, shard_ranked.rows, "day {day}: sharded rows");
            for (r, (a, b)) in
                batch.probabilities.iter().zip(&shard_ranked.probabilities).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "day {day} sharded row {r}: {a} vs {b}");
            }
            assert_eq!(
                batch.top_rows(budget),
                shard_ranked.top_rows_sharded(budget, 7),
                "day {day}: sharded top-B"
            );
        }
        // Steady-state retention is exactly one frame per engine, and the
        // widened store's frame is bigger only by its extra lanes.
        assert_eq!(engine.store().frames().len(), 1);
        assert_eq!(sharded.store().frames().len(), 1);
        assert!(sharded.store().resident_bytes() >= engine.store().resident_bytes());
    }

    #[test]
    fn observe_is_cursor_idempotent() {
        let data = ExperimentData::simulate(SimConfig::small(89));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = PredictorConfig {
            iterations: 20,
            selection_iterations: 3,
            n_base: 10,
            n_quadratic: 4,
            n_product: 4,
            selection_row_cap: 4_000,
            ..PredictorConfig::default()
        };
        let (predictor, _) =
            TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");

        // Observing the same grown slices repeatedly must not double-ingest.
        let mut engine = WeeklyScorer::new(&predictor, &data.topology.lines);
        let half_m = data.output.measurements.len() / 2;
        let half_t = data.output.tickets.len() / 2;
        engine.observe(&data.output.measurements[..half_m], &data.output.tickets[..half_t]);
        engine.observe(&data.output.measurements[..half_m], &data.output.tickets[..half_t]);
        engine.observe(&data.output.measurements, &data.output.tickets);
        engine.observe(&data.output.measurements, &data.output.tickets);

        let day = *split.test_days.last().expect("non-empty");
        let batch = predictor.rank(&data, &[day]);
        let streaming = engine.rank_week(day);
        assert_eq!(batch.probabilities, streaming.probabilities);
    }

    /// The trial moves each Saturday's tests out of its live world into
    /// [`WeeklyScorer::ingest`]. Those drained batches must leave the
    /// scorer exactly where [`WeeklyScorer::observe`] over the whole log of
    /// an undrained run of the same world does: the same ranking and the
    /// same frame every week.
    #[test]
    fn drained_weekly_batches_match_observing_the_whole_log() {
        let sim = SimConfig::small(92);
        let data = ExperimentData::simulate(sim.clone());
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = PredictorConfig {
            iterations: 20,
            selection_iterations: 3,
            n_base: 10,
            n_quadratic: 4,
            n_product: 4,
            selection_row_cap: 4_000,
            ..PredictorConfig::default()
        };
        let (predictor, _) =
            TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
        let lines = &data.topology.lines;
        let (log, tickets) = (&data.output.measurements, &data.output.tickets);

        let mut drained = WeeklyScorer::new(&predictor, lines);
        let mut whole = WeeklyScorer::new(&predictor, lines);
        for scorer in [&mut drained, &mut whole] {
            scorer.set_retention(Retention::All);
        }
        let mut world = nevermind_dslsim::World::generate(sim);
        let mut tickets_ingested = 0;
        let mut weeks = 0;
        while world.day() < data.config.days {
            world.step_day();
            let day = world.day() - 1;
            if day % 7 != 6 {
                continue;
            }
            let tests = world.take_measurements();
            assert!(tests.iter().all(|t| t.day > day.saturating_sub(7)), "day {day}: one week");
            let live = &world.output().tickets;
            drained.ingest(&tests, &live[tickets_ingested..]);
            tickets_ingested = live.len();
            whole.observe(
                &log[..log.partition_point(|t| t.day <= day)],
                &tickets[..tickets.partition_point(|t| t.day <= day)],
            );

            let (a, b) = (drained.rank_week(day), whole.rank_week(day));
            assert_eq!(a.rows, b.rows, "day {day}: rows");
            assert_eq!(a.labels, b.labels, "day {day}: labels");
            let bits = |r: &RankedPredictions| -> Vec<u64> {
                r.probabilities.iter().map(|p| p.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "day {day}: probabilities");
            weeks += 1;
        }
        assert!(weeks > 30, "{weeks} weeks ranked");
        assert!(world.output().measurements.is_empty(), "the live world keeps no drained test");
        assert_eq!(drained.store().export(), whole.store().export(), "frames");
    }

    #[test]
    fn preloaded_frames_reproduce_encoded_rankings() {
        let data = ExperimentData::simulate(SimConfig::small(90));
        let split = SplitSpec::paper_like(&data).expect("horizon fits the protocol");
        let cfg = PredictorConfig {
            iterations: 25,
            selection_iterations: 3,
            n_base: 12,
            n_quadratic: 4,
            n_product: 4,
            selection_row_cap: 4_000,
            ..PredictorConfig::default()
        };
        let (predictor, _) =
            TicketPredictor::fit(&data, &split, &cfg).expect("well-formed training data");
        let days: Vec<u32> = split.test_days.iter().copied().take(3).collect();
        assert!(days.len() >= 2, "need at least two test Saturdays");

        // Reference run, retaining every frame (the checkpoint writer).
        let mut reference = WeeklyScorer::new(&predictor, &data.topology.lines);
        reference.set_retention(Retention::All);
        reference.observe(&data.output.measurements, &data.output.tickets);
        let reference_ranks: Vec<RankedPredictions> =
            days.iter().map(|&d| reference.rank_week(d)).collect();

        // Resumed run: adopt the exported frames via the binary format
        // instead of encoding, plus one stale frame that must be skipped.
        let bytes = reference.store().export();
        let imported = FeatureStore::import(&bytes).expect("checkpoint parses");
        let mut resumed = WeeklyScorer::new(&predictor, &data.topology.lines);
        resumed.observe(&data.output.measurements, &data.output.tickets);
        for frame in imported.into_frames() {
            resumed.preload_frame(frame);
        }
        for (day, reference_rank) in days.iter().skip(1).zip(reference_ranks.iter().skip(1)) {
            let resumed_rank = resumed.rank_week(*day);
            assert_eq!(reference_rank.rows, resumed_rank.rows, "day {day}: rows");
            assert_eq!(reference_rank.labels, resumed_rank.labels, "day {day}: labels");
            for (r, (a, b)) in
                reference_rank.probabilities.iter().zip(&resumed_rank.probabilities).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "day {day} row {r}: {a} vs {b}");
            }
        }
        // Past the preloaded horizon the engine falls back to encoding and
        // still matches a fresh engine.
        if let Some(&later) = split.test_days.get(3) {
            let mut fresh = WeeklyScorer::new(&predictor, &data.topology.lines);
            fresh.observe(&data.output.measurements, &data.output.tickets);
            for &d in &days {
                fresh.rank_week(d);
            }
            assert_eq!(
                fresh.rank_week(later).probabilities,
                resumed.rank_week(later).probabilities,
                "post-checkpoint weeks must re-encode identically"
            );
        }
    }
}
