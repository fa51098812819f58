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
//!   log events each week, borrowed straight from the world's output
//!   (cursors remember how far previous weeks got; nothing is cloned);
//! * [`FeatureStore`] — the engine's single per-week materialization: the
//!   encoder writes the week's tracked base columns into the store's
//!   lane-major frame once, and every downstream reader — stump scoring,
//!   telemetry PSI binning, provenance re-expansion — borrows lane slices
//!   from that same frame instead of keeping its own copy;
//! * [`BatchScorer`] — the predictor's stump ensemble compiled once into
//!   per-stump bin→score lookup tables, evaluated straight off the store's
//!   lanes via [`BatchScorer::margins_gather_parallel`] (derived features
//!   computed on the fly by the same `f32` arithmetic as the batch
//!   `derive` pass), bit-identical to the per-row path;
//! * partial top-`B` selection — [`RankedPredictions::top_rows`] selects
//!   the budgeted head without sorting the whole population.
//!
//! Each piece is individually bit-compatible with its batch counterpart, so
//! a [`WeeklyScorer`] ranking is exactly what [`TicketPredictor::rank`]
//! would produce over the same logs — pinned by the tests below.
//!
//! The store also makes the weekly loop checkpointable:
//! [`WeeklyScorer::preload_frame`] queues frames imported from a
//! `nevermind-store/v1` document, and [`WeeklyScorer::rank_week`] adopts a
//! queued frame in place of encoding when the days match — reproducing the
//! uninterrupted run's rankings byte-for-byte (the frame carries exactly
//! the values and labels the encoder would have produced).

use crate::predictor::{RankedPredictions, TicketPredictor};
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineId, LineTest, Ticket};
use nevermind_features::encode::RowKey;
use nevermind_features::{DerivedFeature, FeatureStore, IncrementalEncoder, Retention, WeekFrame};
use nevermind_ml::score::BatchScorer;
use std::collections::VecDeque;

/// Where one of the ensemble's used features comes from — the gather plan
/// that lets [`WeeklyScorer::rank_week`] score straight off the store's
/// lanes without materialising the assembled feature space.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A selected base column, verbatim.
    Base(usize),
    /// `row[c] * row[c]` over base columns, exactly as `derive` computes it.
    Quadratic(usize),
    /// `row[a] * row[b]` over base columns, exactly as `derive` computes it.
    Product(usize, usize),
}

/// Streaming population ranker for the weekly proactive loop.
pub struct WeeklyScorer<'a> {
    predictor: &'a TicketPredictor,
    lines: &'a [Line],
    encoder: IncrementalEncoder<'a>,
    scorer: BatchScorer,
    /// Per used-feature slot, in *base-column* space — the invariant form
    /// the lane-space plan is rebuilt from when the tracked set changes.
    plan_base: Vec<Source>,
    /// Per used-feature slot: how to compute it from the store's lanes.
    plan: Vec<Source>,
    /// Assembled-space column index per used-feature slot — the key for
    /// re-expanding a scored row for explanation.
    used: Vec<usize>,
    /// Width of the predictor's assembled feature space.
    n_assembled: usize,
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
    /// stump ensemble is compiled to lookup tables here, once, along with a
    /// gather plan mapping each used feature back to the base columns it is
    /// derived from; the store tracks exactly those columns (until
    /// [`WeeklyScorer::track_columns`] widens it) — the full assembled
    /// feature space is never materialised per week.
    pub fn new(predictor: &'a TicketPredictor, lines: &'a [Line]) -> Self {
        let scorer = BatchScorer::new(predictor.model());
        let n_base = predictor.selected_base().len();
        let plan_base: Vec<Source> = scorer
            .used_columns()
            .map(|c| {
                if c < n_base {
                    Source::Base(predictor.selected_base()[c])
                } else {
                    match predictor.selected_derived()[c - n_base] {
                        DerivedFeature::Quadratic { col } => Source::Quadratic(col),
                        DerivedFeature::Product { a, b } => Source::Product(a, b),
                    }
                }
            })
            .collect();
        // The distinct base columns the plan reads become the store's lanes.
        let mut needed: Vec<usize> = plan_base
            .iter()
            .flat_map(|src| match *src {
                Source::Base(c) | Source::Quadratic(c) => vec![c],
                Source::Product(a, b) => vec![a, b],
            })
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let store = FeatureStore::new(lines.len(), &needed, predictor.encoder_config());
        let plan = Self::lane_plan(&plan_base, &store);
        let used: Vec<usize> = scorer.used_columns().collect();
        let n_assembled = n_base + predictor.selected_derived().len();
        Self {
            predictor,
            lines,
            encoder: IncrementalEncoder::new(lines, predictor.encoder_config().clone()),
            scorer,
            plan_base,
            plan,
            used,
            n_assembled,
            store,
            pending: VecDeque::new(),
            shards: 0,
            meas_cursor: 0,
            ticket_cursor: 0,
        }
    }

    /// Rewrites a base-column plan against the store's lane space.
    fn lane_plan(plan_base: &[Source], store: &FeatureStore) -> Vec<Source> {
        // lint:allow(no-panic-in-lib) -- the store's lanes are built as a superset of the plan's columns
        let lane = |c: usize| store.lane_of(c).expect("store tracks every plan column");
        plan_base
            .iter()
            .map(|src| match *src {
                Source::Base(c) => Source::Base(lane(c)),
                Source::Quadratic(c) => Source::Quadratic(lane(c)),
                Source::Product(a, b) => Source::Product(lane(a), lane(b)),
            })
            .collect()
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
        self.plan = Self::lane_plan(&self.plan_base, &self.store);
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

    /// Resident bytes of retained per-week feature state. Under
    /// [`Retention::Latest`] this is one frame regardless of tracing —
    /// the regression guard for the old traced-clone double retention.
    pub fn retained_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self.pending.iter().map(WeekFrame::resident_bytes).sum::<usize>()
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

    /// Ingests whatever the logs have accrued since the last call. Pass the
    /// world's full (growing) log slices each week; internal cursors skip
    /// everything already seen, so only the fresh suffix is processed.
    ///
    /// # Panics
    /// Panics if a log slice shrank since the previous call.
    pub fn observe(&mut self, measurements: &[LineTest], tickets: &[Ticket]) {
        let _span = nevermind_obs::span!("weekly/observe");
        assert!(
            measurements.len() >= self.meas_cursor && tickets.len() >= self.ticket_cursor,
            "logs must only grow between observations"
        );
        self.encoder.ingest_sharded(
            &measurements[self.meas_cursor..],
            &tickets[self.ticket_cursor..],
            self.shards,
        );
        self.meas_cursor = measurements.len();
        self.ticket_cursor = tickets.len();
    }

    /// Encodes and ranks the whole population at the given Saturday, from
    /// rolling state. Equivalent to [`TicketPredictor::rank`] over the
    /// observed logs, at a per-week cost independent of elapsed time.
    ///
    /// The encoder writes the store's tracked lanes for the week (one
    /// frame; time-series z-score lanes are independent Welford streams,
    /// so the subset stays bit-identical per column) — or, if a
    /// checkpointed frame for this day was preloaded, that frame is
    /// adopted and the encode skipped. Margins are then gathered straight
    /// off the frame's lanes: base features read the lane (missing bits
    /// restore the encoder's `NaN`), derived features multiply lane values
    /// with the same `f32` arithmetic as the batch `derive` pass, so the
    /// margins stay bit-identical to the batch ranking. No per-week matrix
    /// is materialised, traced or not.
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
            let ds = self.encoder.encode_day_cols_sharded(day, self.store.cols(), self.shards);
            self.store.ingest_frame(day, &ds);
        }
        let n_rows = self.lines.len();
        nevermind_obs::counter_add!("weekly/lines_scored", n_rows);
        // lint:allow(no-panic-in-lib) -- this week's frame was ingested or adopted just above
        let frame = self.store.latest().expect("frame for the ranked week");
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
        let margins = self.scorer.margins_gather_parallel(n_rows, self.shards, &fill);
        let probabilities = self.predictor.calibration().probabilities(&margins);
        let rows: Vec<RowKey> = self.lines.iter().map(|l| RowKey { line: l.id, day }).collect();
        RankedPredictions::from_scores(rows, probabilities, frame.labels_vec())
    }

    /// Re-expands row `row` of the most recent [`Self::rank_week`] frame
    /// into the predictor's assembled feature space, for
    /// [`TicketPredictor::explain`]. Columns the ensemble never reads come
    /// back as `NaN` (no stump touches them, so their contribution is
    /// exactly zero); used columns are regathered from the store's lanes by
    /// the very plan the week's margins were computed with, so the
    /// reconstructed margin is bit-identical to the ranking's. Returns
    /// `None` before the first ranked week or when `row` is out of range.
    pub fn traced_assembled_row(&self, row: usize) -> Option<Vec<f32>> {
        let frame = self.store.latest()?;
        if row >= frame.n_lines() {
            return None;
        }
        let mut assembled = vec![f32::NAN; self.n_assembled];
        for (slot, &col) in self.used.iter().enumerate() {
            assembled[col] = match self.plan[slot] {
                Source::Base(l) => frame.value(l, row),
                Source::Quadratic(l) => {
                    let v = frame.value(l, row);
                    v * v
                }
                Source::Product(a, b) => frame.value(a, row) * frame.value(b, row),
            };
        }
        Some(assembled)
    }

    /// The week's top-`budget` lines, best first — the dispatch list.
    pub fn top_lines(&mut self, day: u32, budget: usize) -> Vec<LineId> {
        let top: Vec<LineId> = self
            .rank_week(day)
            .top_rows_sharded(budget, self.shards)
            .into_iter()
            .map(|(key, _, _)| key.line)
            .collect();
        nevermind_obs::counter_add!("weekly/lines_dispatched", top.len());
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ExperimentData, SplitSpec};
    use crate::predictor::PredictorConfig;
    use nevermind_dslsim::SimConfig;

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
        assert!(sharded.retained_bytes() >= engine.retained_bytes());
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
