//! The weekly encoder, and the one routine that turns a line's tests and
//! tickets into a base row.
//!
//! The operational loop encodes the *whole* population every Saturday at
//! the *current frontier*, over logs that only ever grow at the end.
//! [`IncrementalEncoder`] keeps per-line rolling state for that:
//!
//! * a bounded window of recent tests (the `history_weeks` time-series
//!   window, which also serves the delta baseline and the modem-off
//!   denominator), pruned as the frontier advances;
//! * the line's customer-edge ticket days (for recency and labels).
//!
//! [`IncrementalEncoder::ingest`] appends one batch of fresh log events
//! (typically a week); [`IncrementalEncoder::encode_day`] then encodes the
//! population in O(lines × window) regardless of how long the simulation
//! has been running.
//!
//! `encode_line_into` is the only code that fills a base row. The weekly
//! encoder runs it over its rolling state; [`crate::BaseEncoder`] replays
//! each line of a fixed log through one reused `LineState` and runs it at
//! every requested `(line, Saturday)` key. So a model is scored on features
//! computed exactly as the ones it was trained on. It finds the frontier
//! between a line's history and its current test by scanning back from
//! the newest test (the tests are day-sorted, so this is the binary
//! search's index, without its cache-missing probes), and runs the
//! time-series z-score lanes in groups of four whose arithmetic compiles
//! to packed `f64` instructions, each lane in `RunningMoments`' exact
//! operation order.
//!
//! Both phases shard by contiguous line ranges
//! ([`IncrementalEncoder::ingest_sharded`],
//! [`IncrementalEncoder::encode_week_into`],
//! [`IncrementalEncoder::encode_day_cols_sharded`]) over
//! [`nevermind_obs::par`] parts: per-line state is independent, so each
//! part owns a disjoint slice of it and writes a disjoint slice of the
//! output — every part count runs the identical per-line routine, which
//! keeps every shard count bit-identical. The weekly writer
//! ([`IncrementalEncoder::encode_week_into`]) encodes straight into the
//! store's lanes; its parts start on 64-line boundaries, so no two write
//! the same bitmap word. [`IncrementalEncoder::encode_day_cols_sharded`]
//! runs the same per-part loop into a row-major matrix.

use crate::encode::{days_since_ticket, fill_row_except_ts, EncodedDataset, EncoderConfig, RowKey};
use crate::BaseEncoder;
use nevermind_dslsim::topology::Line;
use nevermind_dslsim::{LineId, LineTest, Ticket, N_METRICS};
use nevermind_ml::data::{Dataset, FeatureMatrix};
use std::collections::VecDeque;

/// Per-line rolling state.
#[derive(Default)]
pub(crate) struct LineState {
    /// `(day, metrics)` of recent tests, chronological; pruned to the
    /// time-series window of the most recent encode day.
    tests: VecDeque<(u32, [f32; N_METRICS])>,
    /// Customer-edge ticket days, ascending (never pruned: ticket recency
    /// saturates at 365 days but labels may look arbitrarily far back).
    tickets: Vec<u32>,
}

impl LineState {
    /// Forgets every test and ticket, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.tests.clear();
        self.tickets.clear();
    }

    /// Appends one measurement; panics if it rewinds the line's history.
    pub(crate) fn push_test(&mut self, line: LineId, day: u32, values: [f32; N_METRICS]) {
        if let Some(&(last_day, _)) = self.tests.back() {
            assert!(
                day >= last_day,
                "line {line} measurements must arrive in day order ({day} after {last_day})",
            );
        }
        self.tests.push_back((day, values));
    }

    /// Records one customer-edge ticket day, tolerating mildly
    /// out-of-order batches by insertion.
    pub(crate) fn push_ticket(&mut self, day: u32) {
        match self.tickets.last() {
            Some(&last) if day < last => {
                let pos = self.tickets.partition_point(|&d| d <= day);
                self.tickets.insert(pos, day);
            }
            _ => self.tickets.push(day),
        }
    }
}

/// The weekly encoder: ingest log events as they happen, encode the
/// population at the current Saturday from rolling per-line state.
pub struct IncrementalEncoder<'a> {
    lines: &'a [Line],
    config: EncoderConfig,
    state: Vec<LineState>,
    last_encoded: u32,
}

/// Encodes one line into `values_out` (one slot per requested column),
/// returning its label — the single per-line routine behind the weekly
/// encoder (row-major and lane writer) and [`BaseEncoder`]'s replay (rows
/// and lanes).
///
/// `st` must hold the line's tests up to `day` in day order (later ones are
/// not visible yet) and its customer-edge ticket days; tests before
/// `window_start` are pruned here.
#[allow(clippy::too_many_arguments)] // internal: the flattened per-line hot path
pub(crate) fn encode_line_into(
    line: &Line,
    st: &mut LineState,
    day: u32,
    window_start: u32,
    cols: &[usize],
    lanes: &[usize],
    config: &EncoderConfig,
    scratch: &mut [f32],
    values_out: &mut [f32],
) -> bool {
    while st.tests.front().is_some_and(|&(d, _)| d < window_start) {
        st.tests.pop_front();
    }
    let st = &*st;

    // Tests strictly before `day` are history; one at `day` is the
    // current test (ingesting ahead of the encode day is allowed —
    // later events are simply not visible yet). The tests are day-sorted
    // and both encoders hold them up to about `day`, so the cut is found
    // by scanning back from the newest test: the same index as a binary
    // search, without its cache-missing probes into the deque.
    let cut = st.tests.len() - st.tests.iter().rev().take_while(|&&(d, _)| d >= day).count();
    let cur = st.tests.get(cut).filter(|&&(d, _)| d == day).map(|(_, v)| v);
    let prev = cut
        .checked_sub(1)
        .map(|i| &st.tests[i])
        .filter(|&&(d, _)| day - d <= config.delta_max_lookback_days)
        .map(|(_, v)| v);
    let last_ticket = {
        let c = st.tickets.partition_point(|&d| d < day + 1);
        c.checked_sub(1).map(|i| st.tickets[i])
    };
    scratch.fill(f32::NAN);
    fill_row_except_ts(
        line,
        day,
        cur,
        prev,
        cut,
        days_since_ticket(last_ticket, day),
        config,
        scratch,
    );
    if let Some(cur) = cur {
        if !lanes.is_empty() && cut >= config.min_history_tests {
            // The window's first `cut` tests, as the deque's (up to
            // two) contiguous runs — plain slices keep the fused
            // lane loop vectorisable.
            let (a, b) = st.tests.as_slices();
            let (ha, hb) =
                if cut <= a.len() { (&a[..cut], &b[..0]) } else { (a, &b[..cut - a.len()]) };
            fill_ts_fused(ha, hb, cur, lanes, scratch);
        }
    }
    for (slot, &c) in values_out.iter_mut().zip(cols) {
        *slot = scratch[c];
    }

    // The paper's label window `(day, day + horizon]`.
    let c = st.tickets.partition_point(|&d| d <= day);
    st.tickets.get(c).is_some_and(|&d| d <= config.label_end(day))
}

/// Encodes one part's lines at `day` — line `lines[k]` from its rolling
/// state `state[k]` — handing each row to `put(k, row, label)`, one value
/// per requested column. The one per-part loop behind both weekly
/// writers: the row-major matrix and the store's lanes.
fn encode_part(
    lines: &[Line],
    state: &mut [LineState],
    week: &Week<'_>,
    config: &EncoderConfig,
    mut put: impl FnMut(usize, &[f32], bool),
) {
    let mut scratch = vec![f32::NAN; week.width];
    let mut row = vec![0.0f32; week.cols.len()];
    for (k, (line, st)) in lines.iter().zip(state).enumerate() {
        let label = encode_line_into(
            line,
            st,
            week.day,
            week.window_start,
            week.cols,
            &week.lanes,
            config,
            &mut scratch,
            &mut row,
        );
        put(k, &row, label);
    }
}

/// One population encode's inputs, shared by every part.
struct Week<'c> {
    day: u32,
    window_start: u32,
    /// The requested base columns, in output order.
    cols: &'c [usize],
    /// The time-series lanes those columns need.
    lanes: Vec<usize>,
    /// The full base width (the per-line scratch row).
    width: usize,
}

impl<'a> IncrementalEncoder<'a> {
    /// Creates an encoder with empty state for the given plant.
    pub fn new(lines: &'a [Line], config: EncoderConfig) -> Self {
        debug_assert!(lines.iter().enumerate().all(|(i, l)| l.id.index() == i));
        let state = lines.iter().map(|_| LineState::default()).collect();
        Self { lines, config, state, last_encoded: 0 }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Appends a batch of fresh log events (e.g. one week of the world's
    /// output). Non-customer-edge tickets are ignored, as in the ticket
    /// index [`BaseEncoder`] builds.
    ///
    /// # Panics
    /// Panics if a line's measurements arrive out of chronological order.
    pub fn ingest(&mut self, measurements: &[LineTest], tickets: &[Ticket]) {
        self.ingest_sharded(measurements, tickets, 1);
    }

    /// [`IncrementalEncoder::ingest`] spread over `shards`
    /// [`nevermind_obs::par`] parts (`0` = every core). Per-line state is
    /// independent, so each part filters the batch to its own contiguous
    /// line range and applies exactly the per-event routine — any shard
    /// count leaves identical state.
    ///
    /// # Panics
    /// Panics under [`IncrementalEncoder::ingest`]'s conditions.
    pub fn ingest_sharded(&mut self, measurements: &[LineTest], tickets: &[Ticket], shards: usize) {
        let _span = nevermind_obs::span!("features/ingest");
        nevermind_obs::counter_add!("features/events_ingested", measurements.len() + tickets.len());
        let ranges = nevermind_obs::par::bounds(self.state.len(), shards);
        let parts = nevermind_obs::par::split_mut(&mut self.state, &ranges, 1);
        nevermind_obs::par::run(ranges.iter().zip(parts), |(lines, state)| {
            for m in measurements {
                let li = m.line.index();
                if lines.contains(&li) {
                    state[li - lines.start].push_test(m.line, m.day, m.values);
                }
            }
            for t in tickets {
                let li = t.line.index();
                if t.is_customer_edge() && lines.contains(&li) {
                    state[li - lines.start].push_ticket(t.day);
                }
            }
        });
    }

    /// Encodes one row per line at the given Saturday, exactly as
    /// [`BaseEncoder::encode`] would over the ingested logs. Labels reflect
    /// only tickets ingested so far — at the live frontier the label window
    /// is still open, just as it is for the batch encoder on truncated logs.
    ///
    /// # Panics
    /// Panics if `day` is not a Saturday, or decreases between calls (the
    /// rolling windows prune tests the frontier has left behind).
    pub fn encode_day(&mut self, day: u32) -> EncodedDataset {
        let n_cols = BaseEncoder::base_meta().0.len();
        let cols: Vec<usize> = (0..n_cols).collect();
        self.encode_day_cols(day, &cols)
    }

    /// [`IncrementalEncoder::encode_day`] restricted to the requested base
    /// columns, in the given order. Every returned column is bit-identical
    /// to the same column of the full encoding, but the per-week cost
    /// scales with what is asked for — in particular, only the requested
    /// time-series lanes run their Welford pass over the window (lanes are
    /// independent, so skipping some cannot perturb the others). This is
    /// the encoder the weekly scoring engine drives: a trained ensemble
    /// reads a couple dozen base columns, not all of them.
    ///
    /// # Panics
    /// Panics under [`IncrementalEncoder::encode_day`]'s conditions, or if
    /// a column index is out of range.
    pub fn encode_day_cols(&mut self, day: u32, cols: &[usize]) -> EncodedDataset {
        self.encode_day_cols_sharded(day, cols, 1)
    }

    /// Encodes the population at `day` straight into a new frame of
    /// `store` — the weekly writer of the week-major
    /// [`crate::FeatureStore`] — and retains it. Encodes exactly the
    /// store's tracked lanes, spread over `shards`
    /// [`nevermind_obs::par`] parts cut on 64-line boundaries, so no two
    /// parts write the same bitmap word; each line's row goes straight
    /// into the frame's lanes, missing bitmaps and label bitmap. The frame
    /// is byte-identical to [`crate::FeatureStore::ingest_frame`] of
    /// [`IncrementalEncoder::encode_day_cols_sharded`] over the store's
    /// columns, at any shard count: both run the same per-line routine and
    /// the same row writer.
    ///
    /// # Panics
    /// Panics under [`IncrementalEncoder::encode_day_cols`]'s conditions,
    /// or if the store's shape does not match this encoder's population.
    pub fn encode_week_into<'s>(
        &mut self,
        day: u32,
        shards: usize,
        store: &'s mut crate::FeatureStore,
    ) -> &'s crate::store::WeekFrame {
        let _span = nevermind_obs::span!("features/encode_day");
        let week = self.begin_week(day, store.cols());
        let n_rows = self.lines.len();
        assert_eq!(store.n_lines(), n_rows, "store population must match the encoder's");
        let mut frame = crate::store::WeekFrame::zeroed(day, n_rows, store.n_lanes());
        let ranges = crate::store::word_bounds(n_rows, shards);
        let parts = nevermind_obs::par::split_mut(&mut self.state, &ranges, 1)
            .into_iter()
            .zip(frame.rows_mut(&ranges))
            .zip(&ranges);
        let (lines, config) = (self.lines, &self.config);
        nevermind_obs::par::run(parts, |((state, mut rows), range)| {
            encode_part(&lines[range.clone()], state, &week, config, |k, row, label| {
                rows.put(k, row, label);
            });
        });
        store.adopt_frame(frame)
    }

    /// [`IncrementalEncoder::encode_day_cols`] spread over `shards`
    /// [`nevermind_obs::par`] parts (`0` = every core), each encoding a
    /// contiguous line range into a disjoint slice of the output matrix.
    /// Bit-identical for any shard count: every part runs the same
    /// per-line routine, and rows never interact.
    ///
    /// # Panics
    /// Panics under [`IncrementalEncoder::encode_day_cols`]'s conditions.
    pub fn encode_day_cols_sharded(
        &mut self,
        day: u32,
        cols: &[usize],
        shards: usize,
    ) -> EncodedDataset {
        let _span = nevermind_obs::span!("features/encode_day");
        let week = self.begin_week(day, cols);
        let (meta_full, classes_full) = BaseEncoder::base_meta();
        let meta: Vec<_> = cols.iter().map(|&c| meta_full[c].clone()).collect();
        let classes: Vec<_> = cols.iter().map(|&c| classes_full[c]).collect();

        let n_rows = self.lines.len();
        let n_cols = cols.len();
        let mut values = vec![0.0f32; n_rows * n_cols];
        let mut labels = vec![false; n_rows];
        let ranges = nevermind_obs::par::bounds(n_rows, shards);
        let parts = nevermind_obs::par::split_mut(&mut self.state, &ranges, 1)
            .into_iter()
            .zip(nevermind_obs::par::split_mut(&mut values, &ranges, n_cols))
            .zip(nevermind_obs::par::split_mut(&mut labels, &ranges, 1))
            .zip(&ranges);
        let (lines, config) = (self.lines, &self.config);
        nevermind_obs::par::run(parts, |(((state, vals), lbs), range)| {
            encode_part(&lines[range.clone()], state, &week, config, |k, row, label| {
                vals[k * n_cols..(k + 1) * n_cols].copy_from_slice(row);
                lbs[k] = label;
            });
        });

        EncodedDataset {
            data: Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels),
            rows: self.lines.iter().map(|l| RowKey { line: l.id, day }).collect(),
            classes,
        }
    }

    /// Opens one population encode at `day` over `cols`: checks the day
    /// and the columns, advances the frontier and counts the rows.
    fn begin_week<'c>(&mut self, day: u32, cols: &'c [usize]) -> Week<'c> {
        nevermind_obs::counter_add!("features/rows_encoded", self.lines.len());
        assert_eq!(day % 7, 6, "prediction day {day} is not a Saturday");
        assert!(
            day >= self.last_encoded,
            "encode days must be non-decreasing ({} after {})",
            day,
            self.last_encoded
        );
        self.last_encoded = day;
        let width = BaseEncoder::base_meta().0.len();
        assert!(cols.iter().all(|&c| c < width), "column index out of range");
        let lanes = ts_lanes(cols);
        Week { day, window_start: self.config.window_start(day), cols, lanes, width }
    }
}

/// The time-series lanes the base columns `cols` need, ascending and once
/// each: the only lanes `encode_line_into` has to run its z-score pass on.
pub(crate) fn ts_lanes(cols: &[usize]) -> Vec<usize> {
    let ts = 2 * N_METRICS..3 * N_METRICS;
    let lanes = cols.iter().filter(|c| ts.contains(c)).map(|c| c - ts.start);
    lanes.collect::<std::collections::BTreeSet<_>>().into_iter().collect()
}

/// Lanes per group of the z-score pass: on the default x86-64 target a
/// group's arithmetic compiles to packed SSE2 `f64` instructions, two lanes
/// per instruction.
const GROUP: usize = 4;

/// Most groups a row can need (all 25 lanes).
const MAX_GROUPS: usize = N_METRICS.div_ceil(GROUP);

/// [`nevermind_ml::stats::RunningMoments`]' state for one group of lanes.
#[derive(Clone, Copy, Default)]
struct GroupMoments {
    n: [f64; GROUP],
    mean: [f64; GROUP],
    m2: [f64; GROUP],
}

impl GroupMoments {
    /// `RunningMoments::push` on every lane of the group at once:
    /// `n += 1; delta = x - mean; mean += delta / n; m2 += delta * (x - mean)`.
    /// A missing (`NaN`) lane must keep its state, as `push` skips it: a
    /// branch-free bit select turns that lane's three increments into
    /// `+0.0`, and adding `+0.0` leaves `n`, `mean` and `m2` bit for bit —
    /// none of them is ever `-0.0` (each starts at `+0.0`, and a
    /// round-to-nearest sum is `-0.0` only when both terms are), and a
    /// `NaN` state stays the same `NaN`.
    #[inline(always)]
    fn push(&mut self, x: [f64; GROUP]) {
        for (i, x) in x.into_iter().enumerate() {
            let keep = if x.is_nan() { 0 } else { u64::MAX };
            let masked = |v: f64| f64::from_bits(v.to_bits() & keep);
            self.n[i] += masked(1.0);
            let delta = x - self.mean[i];
            self.mean[i] += masked(delta / self.n[i]);
            self.m2[i] += masked(delta * (x - self.mean[i]));
        }
    }
}

/// Fills the requested time-series z-score lanes of a base row from the
/// window tests in `history` (the deque's two contiguous runs, already
/// truncated to the tests strictly before the encode day), in a single
/// fused pass.
///
/// The lanes run in groups of [`GROUP`]; the last group is padded with
/// copies of its first lane whose results are dropped. Every test updates
/// every group, so the groups' division chains interleave. Each lane
/// performs *exactly* the floating-point operation sequence of
/// [`nevermind_ml::stats::RunningMoments`] (`push` per non-NaN sample,
/// then population `std_dev`) — a packed instruction rounds each lane as
/// its scalar form does, and a missing sample adds `+0.0`s that change no
/// bit ([`GroupMoments::push`]) — and lanes never interact, so every
/// computed lane is bit-identical to one `RunningMoments` pass over that
/// metric regardless of which other lanes are requested.
fn fill_ts_fused(
    history_front: &[(u32, [f32; N_METRICS])],
    history_back: &[(u32, [f32; N_METRICS])],
    cur: &[f32; N_METRICS],
    lanes: &[usize],
    slot: &mut [f32],
) {
    assert!(lanes.len() <= N_METRICS);
    let n_groups = lanes.len().div_ceil(GROUP);
    let mut index = [[0usize; GROUP]; MAX_GROUPS];
    for (idx, group) in index.iter_mut().zip(lanes.chunks(GROUP)) {
        *idx = [group[0]; GROUP];
        idx[..group.len()].copy_from_slice(group);
    }
    let mut moments = [GroupMoments::default(); MAX_GROUPS];
    for part in [history_front, history_back] {
        for (_, v) in part {
            for (m, idx) in moments[..n_groups].iter_mut().zip(&index) {
                m.push(idx.map(|lane| f64::from(v[lane])));
            }
        }
    }
    for (j, &lane) in lanes.iter().enumerate() {
        let m = &moments[j / GROUP];
        let (n, mean, m2) = (m.n[j % GROUP], m.mean[j % GROUP], m.m2[j % GROUP]);
        // RunningMoments: mean() and variance() are NaN while empty;
        // variance is the population m2 / n.
        let (mu, sd) = if n == 0.0 { (f64::NAN, f64::NAN) } else { (mean, (m2 / n).sqrt()) };
        let c = f64::from(cur[lane]);
        let z = if sd > 1e-6 {
            (c - mu) / sd
        } else if (c - mu).abs() < 1e-6 {
            0.0
        } else {
            f64::NAN
        };
        slot[2 * N_METRICS + lane] = z as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_dslsim::{SimConfig, SimOutput, World};
    use nevermind_ml::stats::RunningMoments;
    use proptest::prelude::*;

    fn sim(seed: u64) -> (Vec<Line>, SimOutput) {
        let cfg = SimConfig::small(seed);
        let world = World::generate(cfg);
        let lines = world.topology().lines.clone();
        (lines, world.run())
    }

    fn assert_encodings_identical(a: &EncodedDataset, b: &EncodedDataset, ctx: &str) {
        assert_eq!(a.rows, b.rows, "{ctx}: row keys");
        assert_eq!(a.data.y, b.data.y, "{ctx}: labels");
        assert_eq!(a.classes, b.classes, "{ctx}: classes");
        assert_eq!(a.data.x.n_cols(), b.data.x.n_cols(), "{ctx}: columns");
        for r in 0..a.data.len() {
            for c in 0..a.data.x.n_cols() {
                let (va, vb) = (a.data.x.get(r, c), b.data.x.get(r, c));
                assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: row {r} col {c}: {va} vs {vb}");
            }
        }
    }

    // Both encoders run `encode_line_into`; these tests pin its two callers
    // against each other: the weekly ingest and the batch encoder's replay.
    #[test]
    fn matches_batch_encoder_over_full_logs() {
        let (lines, out) = sim(21);
        let cfg = EncoderConfig::default();
        let batch = BaseEncoder::new(&lines, &out.measurements, &out.tickets, cfg.clone());
        let mut inc = IncrementalEncoder::new(&lines, cfg);
        inc.ingest(&out.measurements, &out.tickets);

        // Early (thin history), mid-run, and late Saturdays.
        for day in [6, 6 * 7 + 6, 20 * 7 + 6, 30 * 7 + 6] {
            let a = batch.encode(&[day]);
            let b = inc.encode_day(day);
            assert_encodings_identical(&a, &b, &format!("day {day}"));
        }
    }

    #[test]
    fn weekly_ingestion_matches_batch_encoder_on_truncated_logs() {
        // The operational pattern: ingest one week at a time, encode at the
        // frontier. Each week's encoding must equal a batch encoder built
        // from scratch over exactly the logs seen so far.
        let (lines, out) = sim(22);
        let cfg = EncoderConfig::default();
        let mut inc = IncrementalEncoder::new(&lines, cfg.clone());
        let (mut m_cursor, mut t_cursor) = (0usize, 0usize);

        for day in (6..out.days).step_by(7).skip(4).take(10) {
            let m_end = out.measurements.partition_point(|m| m.day <= day);
            let t_end = out.tickets.partition_point(|t| t.day <= day);
            inc.ingest(&out.measurements[m_cursor..m_end], &out.tickets[t_cursor..t_end]);
            (m_cursor, t_cursor) = (m_end, t_end);

            let truncated = BaseEncoder::new(
                &lines,
                &out.measurements[..m_end],
                &out.tickets[..t_end],
                cfg.clone(),
            );
            let a = truncated.encode(&[day]);
            let b = inc.encode_day(day);
            assert_encodings_identical(&a, &b, &format!("frontier day {day}"));
        }
    }

    #[test]
    fn sharded_ingest_and_encode_match_serial() {
        // The sharding contract at the encoder level: weekly sharded
        // ingest + sharded encode, bit-identical to the serial pair for
        // shard counts {2, 7, 16}.
        let (lines, out) = sim(25);
        let cfg = EncoderConfig::default();
        let mut serial = IncrementalEncoder::new(&lines, cfg.clone());
        let mut sharded: Vec<IncrementalEncoder> =
            [2usize, 7, 16].iter().map(|_| IncrementalEncoder::new(&lines, cfg.clone())).collect();
        let (mut m_cursor, mut t_cursor) = (0usize, 0usize);

        for day in (6..out.days).step_by(7).skip(4).take(8) {
            let m_end = out.measurements.partition_point(|m| m.day <= day);
            let t_end = out.tickets.partition_point(|t| t.day <= day);
            let (ms, ts) = (&out.measurements[m_cursor..m_end], &out.tickets[t_cursor..t_end]);
            serial.ingest(ms, ts);
            let want = serial.encode_day(day);
            for (enc, &n) in sharded.iter_mut().zip(&[2usize, 7, 16]) {
                enc.ingest_sharded(ms, ts, n);
                let got = enc.encode_day_cols_sharded(
                    day,
                    &(0..BaseEncoder::base_meta().0.len()).collect::<Vec<_>>(),
                    n,
                );
                assert_encodings_identical(&want, &got, &format!("day {day}, {n} shards"));
            }
            (m_cursor, t_cursor) = (m_end, t_end);
        }
    }

    #[test]
    fn column_subset_encoding_matches_full() {
        let (lines, out) = sim(24);
        let cfg = EncoderConfig::default();
        let mut full_enc = IncrementalEncoder::new(&lines, cfg.clone());
        let mut sub_enc = IncrementalEncoder::new(&lines, cfg);
        full_enc.ingest(&out.measurements, &out.tickets);
        sub_enc.ingest(&out.measurements, &out.tickets);

        let day = 20 * 7 + 6;
        let full = full_enc.encode_day(day);
        // A spread across every feature block, deliberately out of order:
        // two ts lanes, basic, delta, profile, ticket recency, modem-off.
        let n = N_METRICS;
        let cols = vec![2 * n + 7, 0, 3, n + 1, 2 * n, 3 * n + 2, 3 * n + 5, 3 * n + 6];
        let sub = sub_enc.encode_day_cols(day, &cols);

        assert_eq!(sub.rows, full.rows);
        assert_eq!(sub.data.y, full.data.y);
        assert_eq!(sub.data.x.n_cols(), cols.len());
        for (j, &c) in cols.iter().enumerate() {
            assert_eq!(sub.data.x.meta()[j], full.data.x.meta()[c], "col {c} meta");
            assert_eq!(sub.classes[j], full.classes[c], "col {c} class");
            for r in 0..full.data.len() {
                let (a, b) = (sub.data.x.get(r, j), full.data.x.get(r, c));
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} col {c}: {a} vs {b}");
            }
        }
    }

    /// The z-score of one lane from one `RunningMoments` pass over the
    /// window — the reference the grouped pass must reproduce bit for bit.
    fn reference_z(
        history: &[(u32, [f32; N_METRICS])],
        cur: &[f32; N_METRICS],
        lane: usize,
    ) -> f32 {
        let mut mom = RunningMoments::new();
        for (_, v) in history {
            mom.push(f64::from(v[lane]));
        }
        let (sd, c) = (mom.std_dev(), f64::from(cur[lane]));
        let z = if sd > 1e-6 {
            (c - mom.mean()) / sd
        } else if (c - mom.mean()).abs() < 1e-6 {
            0.0
        } else {
            f64::NAN
        };
        z as f32
    }

    /// A splitmix64 stream: the proptest's values from one drawn seed.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// One metric value of a lane of `kind`: 0 ordinary, 1 with NaN holes,
    /// 2 constant, 3 all `NaN`.
    fn lane_value(kind: u64, next: &mut impl FnMut() -> u64) -> f32 {
        match kind {
            2 => 7.25,
            3 => f32::NAN,
            1 if next() % 3 == 0 => f32::NAN,
            _ => (next() % 2001) as f32 / 16.0 - 60.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The grouped pass equals one `RunningMoments` pass per lane for
        /// every lane count 0..=25 — whole groups and padded ones — in any
        /// lane order, over windows split anywhere across the deque's two
        /// runs, with NaN holes, constant lanes and all-NaN lanes. Slots
        /// it was not asked for stay untouched.
        #[test]
        fn grouped_lanes_match_running_moments(seed in any::<u64>(), n_tests in 0usize..30) {
            let mut next = stream(seed);
            let kinds: Vec<u64> = (0..N_METRICS).map(|_| next() % 4).collect();
            let tests: Vec<(u32, [f32; N_METRICS])> = (0..n_tests)
                .map(|t| (7 * t as u32 + 6, std::array::from_fn(|m| lane_value(kinds[m], &mut next))))
                .collect();
            // A current test on the constant (z = 0), off it (NaN), or missing.
            let cur: [f32; N_METRICS] = std::array::from_fn(|m| match next() % 4 {
                0 => f32::NAN,
                1 => 7.25,
                _ => lane_value(kinds[m] % 2, &mut next),
            });
            let split = (next() % (n_tests as u64 + 1)) as usize;
            let sentinel = -1234.5f32;
            for count in 0..=N_METRICS {
                let mut order: Vec<usize> = (0..N_METRICS).collect();
                for i in (1..N_METRICS).rev() {
                    order.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                let lanes = &order[..count];
                let mut slot = vec![sentinel; 3 * N_METRICS + 7];
                fill_ts_fused(&tests[..split], &tests[split..], &cur, lanes, &mut slot);
                let mut want = vec![sentinel; slot.len()];
                for &lane in lanes {
                    want[2 * N_METRICS + lane] = reference_z(&tests, &cur, lane);
                }
                for (i, (g, w)) in slot.iter().zip(&want).enumerate() {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "lanes {:?}, slot {}: {} vs {}", lanes, i, g, w);
                }
            }
        }
    }

    #[test]
    fn fused_lanes_match_running_moments_with_nan_gaps() {
        // Windows with NaN holes, constant lanes, and an all-NaN lane — the
        // corner cases of the z-score branches.
        let mk = |vals: [f32; 4]| {
            let mut m = [f32::NAN; N_METRICS];
            m[0] = vals[0]; // ordinary lane
            m[1] = vals[1]; // lane with NaN gaps
            m[2] = 7.25; // constant lane (sd == 0)
            m[3] = vals[3]; // all-NaN lane stays NaN
            m
        };
        let tests: Vec<(u32, [f32; N_METRICS])> = vec![
            (6, mk([1.0, f32::NAN, 0.0, f32::NAN])),
            (13, mk([2.5, 4.0, 0.0, f32::NAN])),
            (20, mk([-3.0, f32::NAN, 0.0, f32::NAN])),
            (27, mk([0.5, 9.5, 0.0, f32::NAN])),
        ];
        let cur = mk([1.75, 5.0, 0.0, f32::NAN]);
        let all_lanes: Vec<usize> = (0..N_METRICS).collect();
        let mut slot = vec![f32::NAN; 3 * N_METRICS];
        // Split across the two "deque runs" to exercise both slice args.
        fill_ts_fused(&tests[..1], &tests[1..], &cur, &all_lanes, &mut slot);

        for i in 0..N_METRICS {
            let want = reference_z(&tests, &cur, i);
            let got = slot[2 * N_METRICS + i];
            assert_eq!(got.to_bits(), want.to_bits(), "lane {i}: {got} vs {want}");
        }
        // Sanity on the branch coverage itself.
        assert!(slot[2 * N_METRICS].is_finite());
        assert_eq!(slot[2 * N_METRICS + 2], 0.0);
        assert!(slot[2 * N_METRICS + 3].is_nan());
    }

    #[test]
    #[should_panic(expected = "not a Saturday")]
    fn rejects_non_saturdays() {
        let (lines, _) = sim(23);
        let mut inc = IncrementalEncoder::new(&lines, EncoderConfig::default());
        let _ = inc.encode_day(100);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_rewinding_the_frontier() {
        let (lines, out) = sim(23);
        let mut inc = IncrementalEncoder::new(&lines, EncoderConfig::default());
        inc.ingest(&out.measurements, &out.tickets);
        let _ = inc.encode_day(30 * 7 + 6);
        let _ = inc.encode_day(10 * 7 + 6);
    }
}
