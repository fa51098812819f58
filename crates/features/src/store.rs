//! The week-major columnar feature store.
//!
//! Every Saturday the operational loop encodes the whole population into a
//! feature snapshot that three different readers then want to look at: the
//! compiled stump scorer (per-used-feature gathers), the model-health
//! monitor (per-feature PSI binning), and the decision-provenance layer
//! (re-expanding a traced row). Before this module each reader kept its own
//! copy — the scorer a narrow gathered matrix, the trace layer a *retained
//! clone* of it, the monitor a second encode of the very same day.
//!
//! [`FeatureStore`] replaces all of that with one structure-of-arrays
//! store: per retained week a [`WeekFrame`] holding one contiguous f32
//! *lane* per tracked base column (lane-major: `lane * n_lines + line`),
//! one missing-bitmap per lane, and one label bitmap. The weekly
//! [`crate::IncrementalEncoder::encode_week_into`] encodes each line
//! straight into a new frame's lanes, in parts cut on 64-line bitmap-word
//! boundaries, so a week is materialized once. Any other encoded week
//! enters through [`FeatureStore::ingest_frame`] — a [`crate::BaseEncoder`]
//! week as `store.ingest_frame(day, &enc.encode(&[day]).select_columns(store.cols()))`
//! — which transposes it with the same row writer. Both encoders run one
//! per-line routine, so they fill the store with the same bytes. Readers
//! borrow lane slices ([`WeekFrame::lane`], [`WeekFrame::lane_missing`])
//! zero-copy.
//!
//! # Missing-value canonicalization
//!
//! The encoders mark a missing value as `NaN` (any payload the arithmetic
//! happened to produce). The store canonicalizes on ingest: a `NaN` becomes
//! a set bit in the lane's missing bitmap and a `0.0` in the value page.
//! Reads that need the encoder convention back ([`WeekFrame::value`],
//! [`WeekFrame::lane_f64`]) restore a canonical `NaN` — every consumer of
//! a missing value treats all `NaN`s alike (stumps abstain, PSI routes to
//! the NaN bucket), so the payload is immaterial, and the value pages
//! become byte-deterministic, which the binary export below relies on.
//!
//! # `nevermind-store/v1` binary format
//!
//! [`FeatureStore::export`] serializes the store as one mmap-friendly
//! little-endian document so trials can checkpoint mid-horizon and resume
//! byte-for-byte (see `--store-out` / `--resume-from` on `nevermind
//! trial`), and sharded runs can hand stores across process boundaries:
//!
//! ```text
//! offset  size            field
//! 0       8               magic b"NVMSTOR1"
//! 8       4               version (u32, = 1)
//! 12      4               n_lanes (u32)
//! 16      8               n_lines (u64)
//! 24      4               n_frames (u32)
//! 28      4               horizon_days (u32)        ┐ encoder-config
//! 32      4               history_weeks (u32)       │ guard: a resumed
//! 36      4               min_history_tests (u32)   │ trial must encode
//! 40      4               delta_max_lookback (u32)  ┘ identically
//! 44      4               reserved (u32, = 0)
//! 48      4 * n_lanes     lane directory: base-column index per lane
//! …       pad to 8
//! per frame:
//!         4 + 4           day (u32), reserved (u32, = 0)
//!         4 * n_lanes * n_lines   value pages, lane-major f32 LE
//!         pad to 8
//!         8 * n_lanes * words     missing bitmaps, one page per lane
//!         8 * words               label bitmap
//! ```
//!
//! where `words = ceil(n_lines / 64)`. Every multi-byte field is
//! little-endian and every 8-byte page starts 8-byte aligned, so an import
//! can view pages in place. Export is byte-deterministic: the same frames
//! always serialize to the same bytes (pinned by the store tests).

use crate::encode::{saturating_u32, EncodedDataset, EncoderConfig};
use std::ops::Range;

/// Magic bytes opening a `nevermind-store/v1` document.
pub const STORE_MAGIC: [u8; 8] = *b"NVMSTOR1";
/// Format version written by [`FeatureStore::export`].
pub const STORE_VERSION: u32 = 1;

/// How many encoded weeks a [`FeatureStore`] keeps resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep only the most recent frame — the weekly loop's steady state
    /// (telemetry and provenance only ever read the week just ranked).
    #[default]
    Latest,
    /// Keep every ingested frame — what `--store-out` checkpointing needs.
    All,
}

/// Why a `nevermind-store/v1` document was rejected on import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The document does not open with [`STORE_MAGIC`].
    BadMagic,
    /// The document's version is not [`STORE_VERSION`].
    BadVersion(u32),
    /// The document ended before a promised field or page.
    Truncated {
        /// What was being read when the bytes ran out.
        reading: &'static str,
    },
    /// A structural invariant does not hold (unsorted lane directory,
    /// non-ascending frame days, nonzero padding).
    Malformed {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a nevermind-store/v1 document (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported nevermind-store version {v}"),
            Self::Truncated { reading } => {
                write!(f, "store document truncated while reading {reading}")
            }
            Self::Malformed { detail } => write!(f, "malformed store document: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One retained week: lane-major values, per-lane missing bitmaps, and the
/// label bitmap. Produced by
/// [`crate::IncrementalEncoder::encode_week_into`] or
/// [`FeatureStore::ingest_frame`]; row order is the plant's line order
/// (row `r` is line index `r`).
#[derive(Debug, Clone, PartialEq)]
pub struct WeekFrame {
    day: u32,
    n_lines: usize,
    /// `n_lanes * n_lines` values, lane-major; missing entries hold `0.0`.
    values: Vec<f32>,
    /// `n_lanes * words` bitmap words, lane-major; a set bit means missing.
    missing: Vec<u64>,
    /// `words` bitmap words; a set bit means the row's label is positive.
    labels: Vec<u64>,
}

/// Bitmap words needed for `n` rows.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// The [`nevermind_obs::par::bounds`] partition of `0..n_lines` cut on
/// 64-row word boundaries: every part starts at a multiple of 64, so parts
/// writing one frame never share a missing or label bitmap word.
pub(crate) fn word_bounds(n_lines: usize, shards: usize) -> Vec<Range<usize>> {
    nevermind_obs::par::bounds(words_for(n_lines), shards)
        .into_iter()
        .map(|w| w.start * 64..(w.end * 64).min(n_lines))
        .collect()
}

/// One part's rows of a frame being written ([`WeekFrame::rows_mut`]):
/// part row `k` is frame row `start + k` of the part's range.
pub(crate) struct FrameRows<'a> {
    /// Per lane, the part's slice of the value page.
    values: Vec<&'a mut [f32]>,
    /// Per lane, the part's words of the missing bitmap.
    missing: Vec<&'a mut [u64]>,
    /// The part's words of the label bitmap.
    labels: &'a mut [u64],
}

impl FrameRows<'_> {
    /// Writes part row `k` of a zeroed frame: `row` holds one value per
    /// lane, a `NaN` becomes a missing bit over the page's `0.0`, and a
    /// positive label sets the row's label bit.
    #[inline]
    pub(crate) fn put(&mut self, k: usize, row: &[f32], label: bool) {
        let (w, bit) = (k / 64, 1u64 << (k % 64));
        for ((lane, missing), &v) in self.values.iter_mut().zip(&mut self.missing).zip(row) {
            if v.is_nan() {
                missing[w] |= bit;
            } else {
                lane[k] = v;
            }
        }
        if label {
            self.labels[w] |= bit;
        }
    }
}

#[inline]
fn bit_is_set(bits: &[u64], i: usize) -> bool {
    (bits[i / 64] >> (i % 64)) & 1 == 1
}

/// Calls `f(row)` for every set bit whose row falls in `rows`, walking
/// whole words and skipping zero words — O(set bits), not O(rows).
fn for_set_bits(bits: &[u64], rows: &core::ops::Range<usize>, mut f: impl FnMut(usize)) {
    if rows.is_empty() {
        return;
    }
    let first = rows.start / 64;
    for (w, &raw) in bits.iter().enumerate().take(rows.end.div_ceil(64)).skip(first) {
        let mut word = raw;
        if w == first {
            word &= !0u64 << (rows.start % 64);
        }
        while word != 0 {
            let row = w * 64 + word.trailing_zeros() as usize;
            if row >= rows.end {
                break;
            }
            f(row);
            word &= word - 1;
        }
    }
}

impl WeekFrame {
    /// A frame of `n_lanes` lanes over `n_lines` rows with every value
    /// `0.0`, no missing bit and no positive label, ready for
    /// [`WeekFrame::rows_mut`].
    pub(crate) fn zeroed(day: u32, n_lines: usize, n_lanes: usize) -> Self {
        let words = words_for(n_lines);
        WeekFrame {
            day,
            n_lines,
            values: vec![0.0; n_lanes * n_lines],
            missing: vec![0; n_lanes * words],
            labels: vec![0; words],
        }
    }

    /// One writer per range of `ranges`, a [`word_bounds`] partition of
    /// the frame's rows: each owns its rows of every lane and its words of
    /// every bitmap, so the parts can be written concurrently.
    pub(crate) fn rows_mut(&mut self, ranges: &[Range<usize>]) -> Vec<FrameRows<'_>> {
        use nevermind_obs::par::split_mut;
        let (n, words) = (self.n_lines, words_for(self.n_lines));
        let word_ranges: Vec<Range<usize>> =
            ranges.iter().map(|r| r.start / 64..r.end.div_ceil(64)).collect();
        let mut parts: Vec<FrameRows<'_>> = split_mut(&mut self.labels, &word_ranges, 1)
            .into_iter()
            .map(|labels| FrameRows { values: Vec::new(), missing: Vec::new(), labels })
            .collect();
        let lanes = self.values.chunks_mut(n.max(1)).zip(self.missing.chunks_mut(words.max(1)));
        for (values, missing) in lanes {
            let lane_parts =
                split_mut(values, ranges, 1).into_iter().zip(split_mut(missing, &word_ranges, 1));
            for (part, (v, m)) in parts.iter_mut().zip(lane_parts) {
                part.values.push(v);
                part.missing.push(m);
            }
        }
        parts
    }

    /// The Saturday this frame encodes.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Rows in the frame (the plant's population).
    pub fn n_lines(&self) -> usize {
        self.n_lines
    }

    /// Lanes in the frame.
    pub fn n_lanes(&self) -> usize {
        // With zero rows the value pages are empty for any lane count (the
        // bitmap pages too), so the lane count is then only meaningful
        // through the owning store.
        self.values.len().checked_div(self.n_lines).unwrap_or(0)
    }

    /// Borrows one lane's value page (missing entries read `0.0`; pair with
    /// [`WeekFrame::lane_missing`] or use [`WeekFrame::value`] /
    /// [`WeekFrame::lane_f64`] for the NaN-restoring view).
    pub fn lane(&self, lane: usize) -> &[f32] {
        &self.values[lane * self.n_lines..(lane + 1) * self.n_lines]
    }

    /// Borrows one lane's missing bitmap (a set bit means missing).
    pub fn lane_missing(&self, lane: usize) -> &[u64] {
        let words = words_for(self.n_lines);
        &self.missing[lane * words..(lane + 1) * words]
    }

    /// Whether `(lane, row)` was missing in the encoded week.
    #[inline]
    pub fn is_missing(&self, lane: usize, row: usize) -> bool {
        bit_is_set(self.lane_missing(lane), row)
    }

    /// The encoder-convention value at `(lane, row)`: the stored value, or
    /// `NaN` when the missing bit is set.
    #[inline]
    pub fn value(&self, lane: usize, row: usize) -> f32 {
        if self.is_missing(lane, row) {
            f32::NAN
        } else {
            self.lane(lane)[row]
        }
    }

    /// The row's label bit.
    #[inline]
    pub fn label(&self, row: usize) -> bool {
        bit_is_set(&self.labels, row)
    }

    /// All labels as the encoder's `Vec<bool>` (row order).
    pub fn labels_vec(&self) -> Vec<bool> {
        (0..self.n_lines).map(|r| self.label(r)).collect()
    }

    /// Copies rows `rows` of a lane into `out` with missing entries
    /// restored to `NaN` — the gather-scoring block fill: the value copy
    /// vectorizes and the bitmap walk touches only set bits, where the
    /// per-element [`WeekFrame::value`] path pays index arithmetic and
    /// bounds checks on every cell.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the population or `out.len() != rows.len()`.
    pub fn fill_restored(&self, lane: usize, rows: core::ops::Range<usize>, out: &mut [f32]) {
        out.copy_from_slice(&self.lane(lane)[rows.clone()]);
        for_set_bits(self.lane_missing(lane), &rows, |r| out[r - rows.start] = f32::NAN);
    }

    /// Multiplies `out` element-wise by rows `rows` of a lane with missing
    /// entries treated as `NaN` (`x * NaN = NaN`, so a missing factor
    /// poisons the product exactly as [`crate::DerivedFeature::value`]
    /// does) — the second factor of a derived-feature block fill.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the population or `out.len() != rows.len()`.
    pub fn mul_restored(&self, lane: usize, rows: core::ops::Range<usize>, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(&self.lane(lane)[rows.clone()]) {
            *o *= v;
        }
        for_set_bits(self.lane_missing(lane), &rows, |r| out[r - rows.start] = f32::NAN);
    }

    /// One lane as `f64` samples with `NaN` restored for missing entries —
    /// the view the PSI binning consumes.
    pub fn lane_f64(&self, lane: usize) -> impl Iterator<Item = f64> + '_ {
        let values = self.lane(lane);
        let missing = self.lane_missing(lane);
        (0..self.n_lines).map(
            move |r| {
                if bit_is_set(missing, r) {
                    f64::NAN
                } else {
                    f64::from(values[r])
                }
            },
        )
    }

    /// Resident heap bytes of this frame's pages.
    pub fn resident_bytes(&self) -> usize {
        self.values.len() * 4 + (self.missing.len() + self.labels.len()) * 8
    }
}

/// The week-major SoA columnar store. See the module docs for layout and
/// format; see [`crate::IncrementalEncoder::encode_week_into`] for the
/// weekly writer.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    n_lines: usize,
    /// Base-column index per lane, strictly ascending.
    cols: Vec<usize>,
    /// Encoder-config fields guarded by the binary header: a resumed trial
    /// must re-encode under the identical configuration or the stored
    /// frames would not match what it would have computed.
    horizon_days: u32,
    history_weeks: u32,
    min_history_tests: u32,
    delta_max_lookback_days: u32,
    retention: Retention,
    frames: Vec<WeekFrame>,
}

impl FeatureStore {
    /// Creates an empty store tracking the given base columns for a plant
    /// of `n_lines` lines.
    ///
    /// # Panics
    /// Panics if `cols` is not strictly ascending (lane order must be a
    /// deterministic function of the tracked column set).
    pub fn new(n_lines: usize, cols: &[usize], config: &EncoderConfig) -> Self {
        assert!(cols.windows(2).all(|w| w[0] < w[1]), "store columns must be strictly ascending");
        Self {
            n_lines,
            cols: cols.to_vec(),
            horizon_days: config.horizon_days,
            history_weeks: saturating_u32(config.history_weeks),
            min_history_tests: saturating_u32(config.min_history_tests),
            delta_max_lookback_days: config.delta_max_lookback_days,
            retention: Retention::Latest,
            frames: Vec::new(),
        }
    }

    /// Sets the retention policy. Switching to [`Retention::Latest`] drops
    /// all but the newest resident frame.
    pub fn set_retention(&mut self, retention: Retention) {
        self.retention = retention;
        if retention == Retention::Latest && self.frames.len() > 1 {
            self.frames.drain(..self.frames.len() - 1);
        }
    }

    /// The retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Rows per frame (the plant's population).
    pub fn n_lines(&self) -> usize {
        self.n_lines
    }

    /// Tracked base columns, one per lane, strictly ascending.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Lanes per frame.
    pub fn n_lanes(&self) -> usize {
        self.cols.len()
    }

    /// The lane tracking base column `col`, if any.
    pub fn lane_of(&self, col: usize) -> Option<usize> {
        self.cols.binary_search(&col).ok()
    }

    /// Whether the store was built under the same encoder configuration —
    /// the header guard a resumed trial checks before adopting frames.
    /// Counts past the `u32` range compare as `u32::MAX`, which encodes
    /// the same rows as any larger count.
    pub fn matches_config(&self, config: &EncoderConfig) -> bool {
        self.horizon_days == config.horizon_days
            && self.history_weeks == saturating_u32(config.history_weeks)
            && self.min_history_tests == saturating_u32(config.min_history_tests)
            && self.delta_max_lookback_days == config.delta_max_lookback_days
    }

    /// Resident frames, ascending by day.
    pub fn frames(&self) -> &[WeekFrame] {
        &self.frames
    }

    /// The most recently ingested frame.
    pub fn latest(&self) -> Option<&WeekFrame> {
        self.frames.last()
    }

    /// Consumes the store, yielding its frames (ascending by day) — how a
    /// resumed trial queues checkpointed weeks for adoption.
    pub fn into_frames(self) -> Vec<WeekFrame> {
        self.frames
    }

    /// Resident heap bytes across all frames.
    pub fn resident_bytes(&self) -> usize {
        self.frames.iter().map(WeekFrame::resident_bytes).sum()
    }

    /// Transposes one encoded week into a frame and retains it: values go
    /// lane-major, `NaN`s become missing bits over a `0.0`, labels pack
    /// into the label bitmap — the row writer the weekly
    /// [`crate::IncrementalEncoder::encode_week_into`] fills its frames
    /// with. Returns the ingested frame.
    ///
    /// The dataset's columns must be exactly [`FeatureStore::cols`] in
    /// order (what [`crate::IncrementalEncoder::encode_day_cols`] over
    /// the store's columns and `select_columns(store.cols())` produce).
    ///
    /// # Panics
    /// Panics if the dataset's shape does not match the store, or `day`
    /// does not advance past the newest resident frame.
    pub fn ingest_frame(&mut self, day: u32, ds: &EncodedDataset) -> &WeekFrame {
        assert_eq!(ds.data.len(), self.n_lines, "frame row count must match the plant");
        assert_eq!(ds.data.x.n_cols(), self.cols.len(), "frame must carry one column per lane");
        let mut frame = WeekFrame::zeroed(day, self.n_lines, self.cols.len());
        for mut rows in frame.rows_mut(&word_bounds(self.n_lines, 1)) {
            for (r, &label) in ds.data.y.iter().enumerate() {
                rows.put(r, ds.data.x.row(r), label);
            }
        }
        self.push_frame(frame)
    }

    /// Retains an already-built frame (e.g. one imported from a
    /// checkpoint).
    ///
    /// # Panics
    /// Panics if the frame's shape does not match the store, or its day
    /// does not advance past the newest resident frame.
    pub fn adopt_frame(&mut self, frame: WeekFrame) -> &WeekFrame {
        assert_eq!(frame.n_lines, self.n_lines, "adopted frame row count must match the plant");
        assert_eq!(
            frame.values.len(),
            self.cols.len() * self.n_lines,
            "adopted frame must carry one lane per tracked column"
        );
        self.push_frame(frame)
    }

    fn push_frame(&mut self, frame: WeekFrame) -> &WeekFrame {
        if let Some(last) = self.frames.last() {
            assert!(
                frame.day > last.day,
                "frames must be ingested in ascending day order ({} after {})",
                frame.day,
                last.day
            );
        }
        if self.retention == Retention::Latest {
            self.frames.clear();
        }
        self.frames.push(frame);
        // lint:allow(no-panic-in-lib) -- a frame was pushed on the line above
        self.frames.last().expect("frame just pushed")
    }

    // --- nevermind-store/v1 serialization ---

    /// Serializes the store as one `nevermind-store/v1` document
    /// (byte-deterministic; see the module docs for the layout).
    pub fn export(&self) -> Vec<u8> {
        // A capacity hint: in-memory frames always have a size.
        let frame = frame_bytes(self.cols.len(), self.n_lines).unwrap_or(0);
        let mut out =
            Vec::with_capacity(pad8(48 + 4 * self.cols.len()) + self.frames.len() * frame);
        out.extend_from_slice(&STORE_MAGIC);
        out.extend_from_slice(&STORE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_lines as u64).to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.horizon_days.to_le_bytes());
        out.extend_from_slice(&self.history_weeks.to_le_bytes());
        out.extend_from_slice(&self.min_history_tests.to_le_bytes());
        out.extend_from_slice(&self.delta_max_lookback_days.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for &c in &self.cols {
            out.extend_from_slice(&(c as u32).to_le_bytes());
        }
        pad_to8(&mut out);
        for frame in &self.frames {
            out.extend_from_slice(&frame.day.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            for &v in &frame.values {
                out.extend_from_slice(&v.to_le_bytes());
            }
            pad_to8(&mut out);
            for &w in &frame.missing {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for &w in &frame.labels {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Parses a `nevermind-store/v1` document produced by
    /// [`FeatureStore::export`]. The imported store starts under
    /// [`Retention::All`] (a checkpoint's frames are all wanted).
    ///
    /// The header's counts are checked against the document's length
    /// before anything is allocated for them, so a crafted header cannot
    /// ask for more memory than the document could fill.
    ///
    /// # Errors
    /// Returns [`StoreError`] when the document is not a well-formed v1
    /// store: [`StoreError::Truncated`] when it is shorter than its header
    /// promises, [`StoreError::Malformed`] when a promised size overflows.
    pub fn import(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader { bytes, off: 0 };
        if r.take(8, "magic")? != STORE_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != STORE_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let n_lanes = r.u32("lane count")? as usize;
        let n_lines = usize::try_from(r.u64("line count")?)
            .map_err(|_| StoreError::Malformed { detail: "line count overflows usize".into() })?;
        let n_frames = r.u32("frame count")? as usize;
        let horizon_days = r.u32("horizon guard")?;
        let history_weeks = r.u32("history guard")?;
        let min_history_tests = r.u32("min-history guard")?;
        let delta_max_lookback_days = r.u32("lookback guard")?;
        let _reserved = r.u32("reserved header word")?;
        r.expect_items(n_lanes, 4, "lane directory")?;
        let mut cols = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            cols.push(r.u32("lane directory")? as usize);
        }
        if !cols.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Malformed { detail: "lane directory not ascending".into() });
        }
        r.skip_pad8("header padding")?;

        let words = words_for(n_lines);
        let frame_size = frame_bytes(n_lanes, n_lines)
            .ok_or_else(|| StoreError::Malformed { detail: "frame size overflows".into() })?;
        r.expect_items(n_frames, frame_size, "frames")?;
        let mut frames = Vec::with_capacity(n_frames);
        let mut last_day: Option<u32> = None;
        for _ in 0..n_frames {
            let day = r.u32("frame day")?;
            if last_day.is_some_and(|d| day <= d) {
                return Err(StoreError::Malformed {
                    detail: format!("frame days not ascending at day {day}"),
                });
            }
            last_day = Some(day);
            let _reserved = r.u32("reserved frame word")?;
            let mut values = Vec::with_capacity(n_lanes * n_lines);
            for _ in 0..n_lanes * n_lines {
                values.push(f32::from_le_bytes(r.array4("value page")?));
            }
            r.skip_pad8("value padding")?;
            let mut missing = Vec::with_capacity(n_lanes * words);
            for _ in 0..n_lanes * words {
                missing.push(u64::from_le_bytes(r.array8("missing bitmap")?));
            }
            let mut labels = Vec::with_capacity(words);
            for _ in 0..words {
                labels.push(u64::from_le_bytes(r.array8("label bitmap")?));
            }
            for (l, lane) in values.chunks(n_lines.max(1)).enumerate().take(n_lanes) {
                for (i, &v) in lane.iter().enumerate() {
                    if v != 0.0 && bit_is_set(&missing[l * words..(l + 1) * words], i) {
                        return Err(StoreError::Malformed {
                            detail: format!("missing entry with nonzero value at lane {l} row {i}"),
                        });
                    }
                }
            }
            frames.push(WeekFrame { day, n_lines, values, missing, labels });
        }
        if r.off != bytes.len() {
            return Err(StoreError::Malformed {
                detail: format!("{} trailing bytes after the last frame", bytes.len() - r.off),
            });
        }
        Ok(Self {
            n_lines,
            cols,
            horizon_days,
            history_weeks,
            min_history_tests,
            delta_max_lookback_days,
            retention: Retention::All,
            frames,
        })
    }
}

/// Next multiple of 8.
fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Bytes one exported frame of `n_lanes` lanes over `n_lines` lines
/// occupies — day and reserved word, padded value pages, one missing
/// bitmap per lane and the label bitmap — or `None` if that overflows.
fn frame_bytes(n_lanes: usize, n_lines: usize) -> Option<usize> {
    let values = n_lanes.checked_mul(n_lines)?.checked_mul(4)?.checked_next_multiple_of(8)?;
    let bitmaps = n_lanes.checked_add(1)?.checked_mul(words_for(n_lines))?.checked_mul(8)?;
    values.checked_add(bitmaps)?.checked_add(8)
}

fn pad_to8(out: &mut Vec<u8>) {
    while out.len() % 8 != 0 {
        out.push(0);
    }
}

/// Bounds-checked little-endian cursor over an import document.
struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self.off.checked_add(n).ok_or(StoreError::Truncated { reading })?;
        let slice = self.bytes.get(self.off..end).ok_or(StoreError::Truncated { reading })?;
        self.off = end;
        Ok(slice)
    }

    fn array4(&mut self, reading: &'static str) -> Result<[u8; 4], StoreError> {
        let s = self.take(4, reading)?;
        Ok([s[0], s[1], s[2], s[3]])
    }

    fn array8(&mut self, reading: &'static str) -> Result<[u8; 8], StoreError> {
        let s = self.take(8, reading)?;
        Ok([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array4(reading)?))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array8(reading)?))
    }

    /// Fails unless `count` items of `size` bytes each fit in the rest of
    /// the document.
    fn expect_items(
        &self,
        count: usize,
        size: usize,
        reading: &'static str,
    ) -> Result<(), StoreError> {
        let need = count
            .checked_mul(size)
            .ok_or_else(|| StoreError::Malformed { detail: format!("{reading} size overflows") })?;
        if need > self.bytes.len() - self.off {
            return Err(StoreError::Truncated { reading });
        }
        Ok(())
    }

    fn skip_pad8(&mut self, reading: &'static str) -> Result<(), StoreError> {
        while self.off % 8 != 0 {
            let b = self.take(1, reading)?;
            if b[0] != 0 {
                return Err(StoreError::Malformed { detail: format!("nonzero {reading}") });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nevermind_ml::data::{Dataset, FeatureMatrix, FeatureMeta};

    fn tiny_dataset(
        n_rows: usize,
        cols: &[usize],
        fill: impl Fn(usize, usize) -> f32,
    ) -> EncodedDataset {
        use crate::encode::RowKey;
        use nevermind_dslsim::LineId;
        let meta: Vec<FeatureMeta> =
            cols.iter().map(|c| FeatureMeta::continuous(format!("c{c}"))).collect();
        let mut values = Vec::with_capacity(n_rows * cols.len());
        for r in 0..n_rows {
            for (j, _) in cols.iter().enumerate() {
                values.push(fill(r, j));
            }
        }
        let labels: Vec<bool> = (0..n_rows).map(|r| r % 3 == 0).collect();
        EncodedDataset {
            data: Dataset::new(FeatureMatrix::new(n_rows, meta, values), labels),
            rows: (0..n_rows).map(|r| RowKey { line: LineId(r as u32), day: 6 }).collect(),
            classes: vec![crate::FeatureClass::Basic; cols.len()],
        }
    }

    fn store_with_frame(n_rows: usize) -> FeatureStore {
        let cols = [1usize, 4, 9];
        let mut store = FeatureStore::new(n_rows, &cols, &EncoderConfig::default());
        let ds = tiny_dataset(n_rows, &cols, |r, j| {
            if (r + j) % 5 == 0 {
                f32::NAN
            } else {
                (r * 10 + j) as f32 / 3.0
            }
        });
        store.ingest_frame(6, &ds);
        store
    }

    #[test]
    fn block_fills_match_the_scalar_path_on_unaligned_ranges() {
        // The gather scorer fills word-aligned 256-row blocks, so the
        // first-word masking in `for_set_bits` only bites on unaligned
        // starts — exercise those directly against `value()`.
        let store = store_with_frame(150);
        let frame = store.latest().expect("frame ingested");
        for lane in 0..3 {
            for range in [0..150, 0..1, 149..150, 3..77, 63..65, 64..128, 65..129, 130..150, 70..70]
            {
                let mut out = vec![0.0f32; range.len()];
                frame.fill_restored(lane, range.clone(), &mut out);
                for (i, r) in range.clone().enumerate() {
                    let want = frame.value(lane, r);
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "fill lane {lane} range {range:?} row {r}"
                    );
                }
                let other = (lane + 1) % 3;
                frame.mul_restored(other, range.clone(), &mut out);
                for (i, r) in range.clone().enumerate() {
                    let want = frame.value(lane, r) * frame.value(other, r);
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "mul lane {lane}*{other} range {range:?} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn ingest_canonicalizes_nans_into_the_bitmap() {
        let store = store_with_frame(70);
        let frame = store.latest().expect("frame ingested");
        assert_eq!(frame.day(), 6);
        assert_eq!(frame.n_lanes(), 3);
        for j in 0..3 {
            for (r, &stored) in frame.lane(j).iter().enumerate() {
                let missing = (r + j) % 5 == 0;
                assert_eq!(frame.is_missing(j, r), missing, "lane {j} row {r}");
                if missing {
                    assert_eq!(stored.to_bits(), 0.0f32.to_bits(), "missing stores 0.0");
                    assert!(frame.value(j, r).is_nan(), "value() restores NaN");
                } else {
                    assert_eq!(stored, (r * 10 + j) as f32 / 3.0);
                    assert_eq!(frame.value(j, r), stored);
                }
            }
        }
        for r in 0..70 {
            assert_eq!(frame.label(r), r % 3 == 0, "label bit row {r}");
        }
    }

    #[test]
    fn lane_f64_restores_nan_for_psi_binning() {
        let store = store_with_frame(70);
        let frame = store.latest().expect("frame");
        let vals: Vec<f64> = frame.lane_f64(1).collect();
        assert_eq!(vals.len(), 70);
        for (r, v) in vals.iter().enumerate() {
            assert_eq!(v.is_nan(), (r + 1) % 5 == 0, "row {r}");
        }
    }

    #[test]
    fn retention_latest_keeps_one_frame_and_all_keeps_every() {
        let cols = [0usize, 2];
        let cfg = EncoderConfig::default();
        let ds = |day: u32| tiny_dataset(10, &cols, move |r, j| (day as usize + r + j) as f32);
        let mut latest = FeatureStore::new(10, &cols, &cfg);
        let mut all = FeatureStore::new(10, &cols, &cfg);
        all.set_retention(Retention::All);
        for day in [6u32, 13, 20] {
            latest.ingest_frame(day, &ds(day));
            all.ingest_frame(day, &ds(day));
        }
        assert_eq!(latest.frames().len(), 1);
        assert_eq!(latest.latest().map(WeekFrame::day), Some(20));
        assert_eq!(all.frames().len(), 3);
        assert!(all.resident_bytes() > latest.resident_bytes());
        // Dropping back to Latest sheds the history.
        all.set_retention(Retention::Latest);
        assert_eq!(all.frames().len(), 1);
        assert_eq!(all.latest().map(WeekFrame::day), Some(20));
    }

    #[test]
    #[should_panic(expected = "ascending day order")]
    fn rejects_rewinding_frames() {
        let cols = [0usize];
        let mut store = FeatureStore::new(4, &cols, &EncoderConfig::default());
        store.ingest_frame(13, &tiny_dataset(4, &cols, |r, _| r as f32));
        store.ingest_frame(6, &tiny_dataset(4, &cols, |r, _| r as f32));
    }

    #[test]
    fn export_import_round_trips_byte_identically() {
        let mut store = store_with_frame(70);
        store.set_retention(Retention::All);
        store.ingest_frame(13, &tiny_dataset(70, &[1, 4, 9], |r, j| (r ^ j) as f32));
        let bytes = store.export();
        assert_eq!(&bytes[..8], &STORE_MAGIC);
        assert_eq!(bytes.len() % 8, 0, "document is 8-byte padded");
        let imported = FeatureStore::import(&bytes).expect("well-formed document");
        assert_eq!(imported.cols(), store.cols());
        assert_eq!(imported.n_lines(), store.n_lines());
        assert_eq!(imported.frames().len(), store.frames().len());
        assert!(imported.matches_config(&EncoderConfig::default()));
        assert_eq!(imported.export(), bytes, "re-export must be byte-identical");
    }

    #[test]
    fn import_rejects_garbage() {
        assert_eq!(FeatureStore::import(b"not a store").err(), Some(StoreError::BadMagic));
        let mut bytes = store_with_frame(8).export();
        let whole = FeatureStore::import(&bytes).expect("valid before tampering");
        assert_eq!(whole.frames().len(), 1);
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(FeatureStore::import(&bytes), Err(StoreError::Truncated { .. })));
        let mut versioned = store_with_frame(8).export();
        versioned[8] = 9;
        assert!(matches!(FeatureStore::import(&versioned), Err(StoreError::BadVersion(9))));
        let mut trailing = store_with_frame(8).export();
        trailing.push(0);
        assert!(matches!(FeatureStore::import(&trailing), Err(StoreError::Malformed { .. })));
    }

    /// A header whose counts the document cannot hold is rejected before
    /// anything is allocated for them.
    #[test]
    fn import_checks_header_counts_against_the_document_length() {
        let header = |n_lanes: u32, n_lines: u64, n_frames: u32| {
            let mut bytes = STORE_MAGIC.to_vec();
            for word in [STORE_VERSION, n_lanes] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes.extend_from_slice(&n_lines.to_le_bytes());
            for word in [n_frames, 28, 26, 4, 21, 0] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes
        };
        let truncated = |bytes: &[u8], reading: &'static str| {
            let err = FeatureStore::import(bytes).err();
            assert_eq!(err, Some(StoreError::Truncated { reading }), "{reading}");
        };
        truncated(&header(u32::MAX, 300, 1), "lane directory");
        truncated(&header(0, 300, u32::MAX), "frames");
        let mut huge_lines = header(1, 1 << 40, 1);
        huge_lines.extend_from_slice(&[0; 16]);
        truncated(&huge_lines, "frames");
        let mut overflowing = header(2, 1 << 62, 1);
        overflowing.extend_from_slice(&[0; 8]);
        assert!(
            matches!(FeatureStore::import(&overflowing), Err(StoreError::Malformed { .. })),
            "a frame size past usize is malformed"
        );
    }

    #[test]
    fn empty_population_store_round_trips() {
        let cols = [3usize, 7];
        let mut store = FeatureStore::new(0, &cols, &EncoderConfig::default());
        store.ingest_frame(6, &tiny_dataset(0, &cols, |_, _| 0.0));
        let bytes = store.export();
        let imported = FeatureStore::import(&bytes).expect("empty store is still a store");
        assert_eq!(imported.n_lines(), 0);
        assert_eq!(imported.frames().len(), 1);
        assert_eq!(imported.export(), bytes);
    }
}
