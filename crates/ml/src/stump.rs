//! Confidence-rated decision stumps — the weak learner behind BStump.
//!
//! A stump tests a single feature against a threshold and emits a real-valued
//! score for each side (the paper's `S+` / `S-`, Fig. 5). Missing values
//! (`NaN`) make the stump *abstain* (score 0), mirroring BoosTexter's
//! treatment and the paper's modem-off records.
//!
//! Training uses a binned representation: each feature column is quantized
//! once into at most `n_bins` quantile bins, after which every boosting
//! iteration only needs one O(rows) accumulation pass plus an O(bins) scan
//! per feature, independent of how many distinct values the feature has.
//!
//! Quantizing a column takes one sort: its present values, as
//! order-preserving `u32` keys packed beside their row ids, go through an
//! LSD radix sort (8-bit digits; a digit every key shares skips its pass).
//! The edges are read off the sorted order at the quantile positions, and
//! one monotone walk over it assigns every row its bin. Equal keys are
//! equal bits, so the sorted values are bitwise those of a comparison sort
//! under [`f32::total_cmp`], and edges and bin ids are those of the sort
//! and binary search the kernel replaced (DESIGN.md §14, "One sort per
//! column"). Binning a matrix reuses one set of sort buffers for every
//! column. [`SortedColumns`] keeps every column's sorted order instead, so
//! that the binning of any subset of the rows (a cross-validation fold) is
//! read off the one sort.
//!
//! The accumulation fills one *slot histogram* per feature: slot `2·b + y`
//! holds the weight of bin `b`'s rows with label `y`, and slot `2·k` (for a
//! `k`-bin feature) the weight of its missing rows. `best_split` is the one
//! split scan over such a histogram. Boosting fills the histograms from
//! per-fit slot codes ([`crate::boost`]); [`best_stump_for_feature`] fills
//! one row by row and is the reference the boosting kernel is tested
//! against.

use crate::data::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// Bin id used for missing (`NaN`) values in [`BinnedDataset`].
pub const MISSING_BIN: u16 = u16::MAX;

/// Largest `n_bins` [`BinnedFeature::from_column`] accepts: the largest
/// count for which `2·(n_bins + 1)`, the top slot code of a column with one
/// extra bin, fits in a `u8`.
pub const MAX_BINS: usize = (u8::MAX as usize) / 2 - 1;

/// A one-level decision tree with confidence-rated outputs.
///
/// For a row `x`:
/// * `x[feature] <= threshold` → [`Stump::s_le`]
/// * `x[feature] >  threshold` → [`Stump::s_gt`]
/// * `x[feature]` missing      → `0.0` (abstain)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stump {
    /// Index of the tested feature column.
    pub feature: usize,
    /// Decision threshold (values equal to the threshold go left).
    pub threshold: f32,
    /// Score emitted when the feature value is `<= threshold`.
    pub s_le: f64,
    /// Score emitted when the feature value is `> threshold`.
    pub s_gt: f64,
}

impl Stump {
    /// Evaluates the stump on a feature row.
    #[inline]
    pub fn score(&self, row: &[f32]) -> f64 {
        let v = row[self.feature];
        if v.is_nan() {
            0.0
        } else if v <= self.threshold {
            self.s_le
        } else {
            self.s_gt
        }
    }
}

/// One quantized feature column: quantile-bin edges plus the per-row bin ids.
#[derive(Debug, Clone)]
pub struct BinnedFeature {
    /// Upper edge (inclusive) of each bin, strictly increasing. A split
    /// "after bin `b`" corresponds to the stump threshold `edges[b]`.
    pub edges: Vec<f32>,
    /// Bin id per row; [`MISSING_BIN`] marks missing values.
    pub bin_of_row: Vec<u16>,
}

impl BinnedFeature {
    /// Quantizes one column into at most `n_bins` quantile bins.
    ///
    /// Duplicate cut points are merged, so constant or low-cardinality
    /// columns get correspondingly fewer bins (a binary feature gets two).
    ///
    /// # Panics
    /// Panics unless `2 ≤ n_bins ≤` [`MAX_BINS`]: boosting numbers the
    /// `2·k + 1` histogram slots of a `k`-bin column with `u8` slot
    /// codes, and a column gets at most `n_bins + 1` bins. Also panics if
    /// the column has more than `u32::MAX` rows: the sort packs each row
    /// id into 32 bits beside its value's key.
    pub fn from_column(values: &[f32], n_bins: usize) -> Self {
        Self::quantize(values.iter().copied(), n_bins, &mut SortBuffers::default())
    }

    /// [`Self::from_column`] over a column's values in row order, sorting
    /// in `buffers` (kept between calls, so a caller binning many columns
    /// allocates them once).
    pub(crate) fn quantize(
        values: impl ExactSizeIterator<Item = f32>,
        n_bins: usize,
        buffers: &mut SortBuffers,
    ) -> Self {
        let n_rows = values.len();
        Self::from_sorted(buffers.sort(values), n_rows, n_bins)
    }

    /// The edges and bins of a column of `n_rows` rows from its sorted
    /// entries ([`SortBuffers::sort`]'s order; every row id below
    /// `n_rows`). Rows with no entry are missing.
    fn from_sorted(sorted: &[u64], n_rows: usize, n_bins: usize) -> Self {
        assert!(n_bins >= 2, "need at least 2 bins");
        assert!(
            n_bins <= MAX_BINS,
            "bin count {n_bins} above {MAX_BINS}: slot codes must fit in u8"
        );
        let mut bin_of_row = vec![MISSING_BIN; n_rows];
        let m = sorted.len();
        if m == 0 {
            return Self { edges: vec![0.0], bin_of_row };
        }
        let value = |entry: u64| from_order_key((entry >> 32) as u32);

        // Quantile cut points; dedup keeps edges strictly increasing.
        let mut edges: Vec<f32> = Vec::with_capacity(n_bins);
        for b in 1..=n_bins {
            let pos = (b * m) / n_bins;
            let idx = pos.saturating_sub(1).min(m - 1);
            let e = value(sorted[idx]);
            if edges.last().map_or(true, |&last| e > last) {
                edges.push(e);
            }
        }
        // Make sure the last edge covers the maximum value. The quantile
        // loop always pushes at least one edge.
        let max = value(sorted[m - 1]);
        if edges[edges.len() - 1] < max {
            edges.push(max);
        }

        // A row's bin is the number of edges below its value, clamped to
        // the last bin; along the sorted order that count never falls.
        let last = edges.len() - 1;
        let mut bin = 0;
        for &entry in sorted {
            let v = value(entry);
            while bin < last && edges[bin] < v {
                bin += 1;
            }
            bin_of_row[entry as u32 as usize] = bin as u16;
        }
        Self { edges, bin_of_row }
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.edges.len()
    }
}

/// A fully quantized dataset: one [`BinnedFeature`] per column.
///
/// Built once per training run; reused across all boosting iterations.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    features: Vec<BinnedFeature>,
}

impl BinnedDataset {
    /// Quantizes every column of a feature matrix, each in one
    /// [`BinnedFeature::quantize`]: the reference the tests hold
    /// [`SortedColumns`]' binnings to.
    #[cfg(test)]
    pub(crate) fn from_matrix(x: &FeatureMatrix, n_bins: usize) -> Self {
        let mut buffers = SortBuffers::default();
        let features = (0..x.n_cols())
            .map(|c| {
                let column = (0..x.n_rows()).map(|r| x.get(r, c));
                BinnedFeature::quantize(column, n_bins, &mut buffers)
            })
            .collect();
        Self { n_rows: x.n_rows(), features }
    }

    /// Number of rows in the quantized dataset.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Access to a quantized column.
    pub fn feature(&self, idx: usize) -> &BinnedFeature {
        &self.features[idx]
    }
}

/// Every column of a matrix sorted once, kept so that the binning of the
/// whole matrix and of any subset of its rows is read off the one sort:
/// 8 B per present cell, in one buffer sized for every cell.
///
/// A binning's edges depend only on the sorted values and a row's bin only
/// on its value, so filtering a column's sorted entries to a subset's rows
/// gives the order a sort of that subset would, bins and edges alike
/// (DESIGN.md §14, "One sort per column").
#[derive(Debug)]
pub struct SortedColumns {
    n_rows: usize,
    /// Each column's present values as sorted `key << 32 | row` entries,
    /// column after column.
    entries: Vec<u64>,
    /// Column `c`'s entries are `entries[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl SortedColumns {
    /// Sorts every column of `x`.
    ///
    /// # Panics
    /// Panics if `x` has more than `u32::MAX` rows.
    pub fn new(x: &FeatureMatrix) -> Self {
        let mut buffers = SortBuffers::default();
        let mut entries = Vec::with_capacity(x.n_rows() * x.n_cols());
        let mut starts = Vec::with_capacity(x.n_cols() + 1);
        starts.push(0);
        for c in 0..x.n_cols() {
            entries.extend_from_slice(buffers.sort((0..x.n_rows()).map(|r| x.get(r, c))));
            starts.push(entries.len());
        }
        Self { n_rows: x.n_rows(), entries, starts }
    }

    fn columns(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.starts.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// The binning of the whole matrix: each column's
    /// [`BinnedFeature::from_column`].
    pub fn binned(&self, n_bins: usize) -> BinnedDataset {
        let features = self
            .columns()
            .map(|sorted| BinnedFeature::from_sorted(sorted, self.n_rows, n_bins))
            .collect();
        BinnedDataset { n_rows: self.n_rows, features }
    }

    /// The binning of the listed rows, in the listed order: the binning
    /// [`BinnedFeature::from_column`] gives each column of
    /// `x.select_rows(rows)`.
    ///
    /// # Panics
    /// Panics if a row is out of range or listed twice.
    pub fn binned_rows(&self, rows: &[usize], n_bins: usize) -> BinnedDataset {
        // Each source row's position in `rows`; rows ≤ u32::MAX, so no
        // position reaches the `u32::MAX` that marks a row left out.
        let mut position = vec![u32::MAX; self.n_rows];
        for (i, &row) in rows.iter().enumerate() {
            assert!(position[row] == u32::MAX, "row {row} listed twice");
            position[row] = i as u32;
        }
        let mut subset = Vec::new();
        let features = self
            .columns()
            .map(|sorted| {
                // Branch-free: whether a row is kept is a coin flip for a
                // fold, so every entry is written (re-keyed by position)
                // and only a kept one moves the end past it.
                if subset.len() < sorted.len() {
                    subset.resize(sorted.len(), 0);
                }
                let mut kept = 0;
                for &entry in sorted {
                    let at = position[entry as u32 as usize];
                    subset[kept] = entry >> 32 << 32 | u64::from(at);
                    kept += usize::from(at != u32::MAX);
                }
                BinnedFeature::from_sorted(&subset[..kept], rows.len(), n_bins)
            })
            .collect();
        BinnedDataset { n_rows: rows.len(), features }
    }
}

/// The two buffers of a column sort, 8 B per row each: the
/// packed `key << 32 | row` entries and the scratch the radix passes
/// scatter into. Their capacity outlives one column so that binning a
/// matrix allocates them once (why: DESIGN.md §14, "One sort per column").
#[derive(Default)]
pub(crate) struct SortBuffers {
    entries: Vec<u64>,
    scratch: Vec<u64>,
}

impl SortBuffers {
    /// Sorts a column's present values, given in row order, as packed
    /// `key << 32 | row` entries in [`f32::total_cmp`] order (ties in row
    /// order); `NaN`s get no entry.
    ///
    /// # Panics
    /// Panics if the column has more than `u32::MAX` rows.
    fn sort(&mut self, values: impl ExactSizeIterator<Item = f32>) -> &[u64] {
        let n_rows = values.len();
        assert!(u32::try_from(n_rows).is_ok(), "{n_rows} rows: packed row ids must fit in u32");
        let Self { entries, scratch } = self;
        entries.clear();
        // Sized to the row count, not grown by doubling: a matrix's first
        // column allocates what every later column reuses.
        entries.reserve_exact(n_rows);
        // Bits set in some key, and bits set in every key: a bit where the
        // two agree is the same in every key.
        let (mut any, mut all) = (0u32, u32::MAX);
        for (row, v) in values.enumerate() {
            if !v.is_nan() {
                let key = order_key(v);
                any |= key;
                all &= key;
                entries.push(u64::from(key) << 32 | row as u64);
            }
        }
        let m = entries.len();
        if m == 0 {
            return entries;
        }
        if scratch.len() < m {
            scratch.resize(n_rows, 0);
        }
        radix_sort(entries, &mut scratch[..m], any ^ all)
    }
}

/// The `u32` whose unsigned order is [`f32::total_cmp`]'s order on
/// non-`NaN` values: positives get the sign bit set, negatives have every
/// bit flipped. It is a bijection, so equal keys are equal bits.
fn order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`order_key`].
fn from_order_key(key: u32) -> f32 {
    f32::from_bits(key ^ ((((!key) as i32 >> 31) as u32) | 0x8000_0000))
}

/// Stable LSD radix sort of `entries` by their high 32 bits (the key),
/// ping-ponging with `scratch` (same length). `varying` holds the key bits
/// that differ between entries: the 8-bit digits start at its lowest set
/// bit, since the bits below it are the same in every key, and a digit
/// that is the same for every entry gets no pass. Returns whichever buffer
/// holds the sorted entries.
fn radix_sort<'a>(
    mut entries: &'a mut [u64],
    mut scratch: &'a mut [u64],
    varying: u32,
) -> &'a [u64] {
    if varying == 0 {
        return entries;
    }
    let low = 32 + varying.trailing_zeros();
    let n_digits = (64 - low).div_ceil(8) as usize;
    let digit = |entry: u64, d: usize| (entry >> (low as usize + 8 * d)) as usize & 0xFF;

    // Every digit's histogram from one pass. Consecutive entries count
    // into separate copies, so a digit shared by runs of entries (a binary
    // or small-count column) does not make each count wait for the
    // previous one's store.
    const COPIES: usize = 4;
    let mut counts = [[[0u32; 256]; 4]; COPIES];
    let mut quads = entries.chunks_exact(COPIES);
    for quad in &mut quads {
        for (copy, &entry) in counts.iter_mut().zip(quad) {
            for (d, histogram) in copy.iter_mut().enumerate().take(n_digits) {
                histogram[digit(entry, d)] += 1;
            }
        }
    }
    for &entry in quads.remainder() {
        for (d, histogram) in counts[0].iter_mut().enumerate().take(n_digits) {
            histogram[digit(entry, d)] += 1;
        }
    }

    for d in 0..n_digits {
        let mut next: [usize; 256] =
            std::array::from_fn(|byte| counts.iter().map(|copy| copy[d][byte] as usize).sum());
        if next.contains(&entries.len()) {
            continue;
        }
        // Counts to offsets: where each byte value's entries start.
        let mut offset = 0;
        for slot in next.iter_mut() {
            (*slot, offset) = (offset, offset + *slot);
        }
        for &entry in entries.iter() {
            let slot = &mut next[digit(entry, d)];
            scratch[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(&mut entries, &mut scratch);
    }
    entries
}

/// Result of a stump search: the stump plus its Schapire–Singer `Z` value
/// (the normalization factor the boosting round will incur; smaller is
/// better, `Z = 1` is uninformative).
#[derive(Debug, Clone)]
pub struct StumpSearchResult {
    /// The best stump found.
    pub stump: Stump,
    /// Its `Z` objective (sum over blocks of `2·sqrt(W⁺·W⁻)` plus the total
    /// weight of abstained rows).
    pub z: f64,
}

/// Finds the best threshold for one feature under the current weights.
///
/// `weights[i]` must be non-negative; `labels[i]` is the ±1 class encoded as
/// a bool. `smoothing` is the ε added to each block's class weight before
/// taking the log-ratio (Schapire–Singer recommend `1/(2n)` of total weight).
///
/// This fills the slot histogram one row at a time, branching on the
/// missing bin and the label; boosting fills the same histogram from slot
/// codes and must match this bit for bit.
pub fn best_stump_for_feature(
    feature_idx: usize,
    feature: &BinnedFeature,
    labels: &[bool],
    weights: &[f64],
    smoothing: f64,
) -> Option<StumpSearchResult> {
    let k = feature.n_bins();
    if k < 2 {
        return None;
    }
    let mut hist = vec![0f64; 2 * k + 1];
    for ((&bin, &y), &w) in feature.bin_of_row.iter().zip(labels).zip(weights) {
        if bin == MISSING_BIN {
            hist[2 * k] += w;
        } else {
            hist[2 * usize::from(bin) + usize::from(y)] += w;
        }
    }
    best_split(feature_idx, &feature.edges, &hist, smoothing)
}

/// The split scan: the best threshold for the feature with bin `edges`,
/// given its slot histogram `hist` (`2·k + 1` slots for `k` bins — the
/// class weights of each bin interleaved, then the missing weight).
///
/// Returns `None` for fewer than two bins (no split exists).
pub(crate) fn best_split(
    feature_idx: usize,
    edges: &[f32],
    hist: &[f64],
    smoothing: f64,
) -> Option<StumpSearchResult> {
    let k = edges.len();
    if k < 2 {
        return None;
    }
    let (by_bin, missing) = hist.split_at(2 * k);
    let w_missing = missing[0];
    let tot_pos: f64 = by_bin.chunks_exact(2).map(|s| s[1]).sum();
    let tot_neg: f64 = by_bin.chunks_exact(2).map(|s| s[0]).sum();

    let mut best: Option<(usize, f64)> = None;
    let mut le_pos = 0f64;
    let mut le_neg = 0f64;
    // Split after bin b: left = bins 0..=b, right = bins b+1..k.
    for (b, s) in by_bin.chunks_exact(2).take(k - 1).enumerate() {
        le_pos += s[1];
        le_neg += s[0];
        let gt_pos = tot_pos - le_pos;
        let gt_neg = tot_neg - le_neg;
        let z = 2.0 * (le_pos * le_neg).sqrt() + 2.0 * (gt_pos * gt_neg).sqrt() + w_missing;
        if best.map_or(true, |(_, bz)| z < bz) {
            best = Some((b, z));
        }
    }
    let (split_bin, z) = best?;

    // Recompute the block weights for the winning split to derive scores.
    let left = &by_bin[..2 * (split_bin + 1)];
    let le_pos: f64 = left.chunks_exact(2).map(|s| s[1]).sum();
    let le_neg: f64 = left.chunks_exact(2).map(|s| s[0]).sum();
    let gt_pos = tot_pos - le_pos;
    let gt_neg = tot_neg - le_neg;
    let s_le = 0.5 * ((le_pos + smoothing) / (le_neg + smoothing)).ln();
    let s_gt = 0.5 * ((gt_pos + smoothing) / (gt_neg + smoothing)).ln();

    Some(StumpSearchResult {
        stump: Stump { feature: feature_idx, threshold: edges[split_bin], s_le, s_gt },
        z,
    })
}

/// Finds the best stump across a set of candidate feature columns, one
/// [`best_stump_for_feature`] per column (the reference for boosting's
/// per-round search; ties go to the earlier candidate).
///
/// Returns `None` only when no feature admits a split (e.g. all columns are
/// constant or entirely missing).
pub fn best_stump(
    binned: &BinnedDataset,
    candidate_features: &[usize],
    labels: &[bool],
    weights: &[f64],
    smoothing: f64,
) -> Option<StumpSearchResult> {
    candidate_features
        .iter()
        .filter_map(|&f| best_stump_for_feature(f, binned.feature(f), labels, weights, smoothing))
        .min_by(|a, b| a.z.total_cmp(&b.z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureMeta;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn matrix(cols: Vec<(&str, Vec<f32>)>) -> FeatureMatrix {
        let n_rows = cols[0].1.len();
        let meta = cols.iter().map(|(n, _)| FeatureMeta::continuous(*n)).collect();
        let mut values = vec![0f32; n_rows * cols.len()];
        for (c, (_, col)) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                values[r * cols.len() + c] = v;
            }
        }
        FeatureMatrix::new(n_rows, meta, values)
    }

    /// The binning the radix kernel replaced: a comparison sort of the
    /// present values, quantile edges, and a binary search per value.
    fn reference_binning(values: &[f32], n_bins: usize) -> BinnedFeature {
        let mut present: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if present.is_empty() {
            return BinnedFeature { edges: vec![0.0], bin_of_row: vec![MISSING_BIN; values.len()] };
        }
        present.sort_by(f32::total_cmp);
        let mut edges: Vec<f32> = Vec::with_capacity(n_bins);
        for b in 1..=n_bins {
            let pos = (b * present.len()) / n_bins;
            let idx = pos.saturating_sub(1).min(present.len() - 1);
            let e = present[idx];
            if edges.last().map_or(true, |&last| e > last) {
                edges.push(e);
            }
        }
        let max = present[present.len() - 1];
        if edges[edges.len() - 1] < max {
            edges.push(max);
        }
        let bin_of_row = values
            .iter()
            .map(|&v| {
                if v.is_nan() {
                    MISSING_BIN
                } else {
                    edges.partition_point(|&e| e < v).min(edges.len() - 1) as u16
                }
            })
            .collect();
        BinnedFeature { edges, bin_of_row }
    }

    /// Values the binning must treat exactly as a comparison sort does.
    const SPECIAL: [f32; 12] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN,
        f32::MAX,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-45,  // smallest positive subnormal
        -3e-39, // a negative subnormal
        1.0,
        -1.0,
    ];

    /// `NaN`s with different sign bits and payloads, quiet and signaling.
    const NANS: [u32; 5] = [0x7FC0_0000, 0xFFC0_0000, 0x7F80_0001, 0xFFBF_FFFF, 0x7FC0_1234];

    /// A column of `n` values of one shape, `missing` of them `NaN` on
    /// average.
    fn shaped_column(rng: &mut ChaCha8Rng, n: usize, shape: u32, missing: f64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if rng.random_bool(missing) {
                    return f32::from_bits(NANS[rng.random_range(0..NANS.len())]);
                }
                match shape {
                    // Any bit pattern: every exponent, subnormals, NaNs.
                    0 => f32::from_bits(rng.random::<u32>()),
                    1 => rng.random::<f32>() * 200.0 - 100.0,
                    2 => SPECIAL[rng.random_range(0..SPECIAL.len())],
                    // Duplicate-heavy: a few values, signed zeros among them.
                    3 => [-2.5, -0.0, 0.0, 0.5, 7.0][rng.random_range(0..5usize)],
                    4 => rng.random_range(0..2u32) as f32,
                    5 => rng.random_range(0..31u32) as f32,
                    _ => 42.0,
                }
            })
            .collect()
    }

    fn assert_same_binning(got: &BinnedFeature, want: &BinnedFeature) {
        let bits = |edges: &[f32]| edges.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.edges), bits(&want.edges));
        assert_eq!(got.bin_of_row, want.bin_of_row);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(160))]

        /// The radix kernel bins every column exactly as the comparison
        /// sort and binary search did, bit for bit, whether it sorts in
        /// fresh buffers (`from_column`) or in buffers a longer or shorter
        /// column used before.
        #[test]
        fn radix_binning_matches_the_sort_and_search_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..5000,
            n_bins in 2usize..=MAX_BINS,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n_bins = if rng.random_bool(0.1) { MAX_BINS } else { n_bins };
            let mut buffers = SortBuffers::default();
            for len in [n, rng.random_range(1..=n), n] {
                let shape = rng.random_range(0..7u32);
                let missing = [0.0, 0.01, 0.3, 0.9, 1.0][rng.random_range(0..5usize)];
                let values = shaped_column(&mut rng, len, shape, missing);
                let want = reference_binning(&values, n_bins);
                assert_same_binning(&BinnedFeature::from_column(&values, n_bins), &want);
                let reused =
                    BinnedFeature::quantize(values.iter().copied(), n_bins, &mut buffers);
                assert_same_binning(&reused, &want);
            }
        }
    }

    fn assert_same_dataset(got: &BinnedDataset, want: &BinnedDataset) {
        assert_eq!(got.n_rows(), want.n_rows());
        assert_eq!(got.n_features(), want.n_features());
        for c in 0..want.n_features() {
            assert_same_binning(got.feature(c), want.feature(c));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(160))]

        /// The binnings read off one sort of a matrix equal a fresh binning
        /// of the whole matrix and of a copy of each row subset, bit for
        /// bit: cross-validation folds (`k_folds`' shuffled train rows) and
        /// shuffled subsets of every size from one row to all of them.
        #[test]
        fn sorted_columns_bin_like_a_fresh_binning_of_the_rows(
            seed in 0u64..u64::MAX,
            n in 1usize..700,
            n_cols in 1usize..8,
            n_bins in 2usize..=MAX_BINS,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let cols: Vec<(&str, Vec<f32>)> = (0..n_cols)
                .map(|_| {
                    let shape = rng.random_range(0..7u32);
                    let missing = [0.0, 0.01, 0.3, 0.9, 1.0][rng.random_range(0..5usize)];
                    ("c", shaped_column(&mut rng, n, shape, missing))
                })
                .collect();
            let x = matrix(cols);
            let sorted = SortedColumns::new(&x);
            assert_same_dataset(&sorted.binned(n_bins), &BinnedDataset::from_matrix(&x, n_bins));

            let mut subsets: Vec<Vec<usize>> = Vec::new();
            if n >= 2 {
                let k = rng.random_range(2..=n.min(5));
                subsets.extend(crate::cv::k_folds(n, k, rng.random()).into_iter().map(|f| f.train));
            }
            for len in [1, rng.random_range(1..=n), n] {
                let mut rows: Vec<usize> = (0..n).collect();
                rows.shuffle(&mut rng);
                rows.truncate(len);
                subsets.push(rows);
            }
            for rows in &subsets {
                let want = BinnedDataset::from_matrix(&x.select_rows(rows), n_bins);
                assert_same_dataset(&sorted.binned_rows(rows, n_bins), &want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 1 listed twice")]
    fn subset_binning_rejects_a_repeated_row() {
        let x = matrix(vec![("f", vec![1.0, 2.0, 3.0])]);
        SortedColumns::new(&x).binned_rows(&[1, 0, 1], 4);
    }

    #[test]
    fn signed_zeros_share_one_edge_and_one_bin() {
        for values in [vec![0.0, -0.0, 1.0, -0.0], vec![-0.0, 0.0, 0.0, 2.0]] {
            let bf = BinnedFeature::from_column(&values, 4);
            assert_same_binning(&bf, &reference_binning(&values, 4));
            assert_eq!(bf.n_bins(), 2, "{values:?}: {:?}", bf.edges);
            assert_eq!(bf.bin_of_row[0], bf.bin_of_row[1]);
        }
    }

    #[test]
    fn order_keys_follow_total_cmp() {
        let mut values: Vec<f32> = SPECIAL.to_vec();
        values.extend([3.5, -7.25, 1e30, -1e-30]);
        for &a in &values {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn binning_covers_all_values() {
        let vals = vec![5.0, 1.0, 3.0, 2.0, 4.0, f32::NAN];
        let bf = BinnedFeature::from_column(&vals, 4);
        assert_eq!(bf.bin_of_row[5], MISSING_BIN);
        // All non-missing rows must land in a valid bin whose edge bounds them.
        for (i, &v) in vals.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            let b = bf.bin_of_row[i] as usize;
            assert!(v <= bf.edges[b], "value {v} exceeds its bin edge");
            if b > 0 {
                assert!(v > bf.edges[b - 1], "value {v} not above previous edge");
            }
        }
    }

    #[test]
    fn binning_binary_column_gets_two_bins() {
        let vals = vec![0.0, 1.0, 0.0, 1.0, 1.0];
        let bf = BinnedFeature::from_column(&vals, 32);
        assert_eq!(bf.n_bins(), 2);
        assert_eq!(bf.edges, vec![0.0, 1.0]);
    }

    #[test]
    fn binning_constant_column_has_one_bin() {
        let vals = vec![7.0; 10];
        let bf = BinnedFeature::from_column(&vals, 8);
        assert_eq!(bf.n_bins(), 1);
    }

    #[test]
    fn binning_all_missing() {
        let vals = vec![f32::NAN; 4];
        let bf = BinnedFeature::from_column(&vals, 8);
        assert!(bf.bin_of_row.iter().all(|&b| b == MISSING_BIN));
    }

    #[test]
    fn bin_count_bound_keeps_slot_codes_in_u8() {
        // A column gets at most `n_bins + 1` bins; its top slot code,
        // `2·bins`, fits in u8 at the bound and would not one above it.
        assert_eq!(MAX_BINS, 126);
        assert_eq!(u8::try_from(2 * (MAX_BINS + 1)), Ok(u8::MAX - 1));
        assert!(u8::try_from(2 * (MAX_BINS + 2)).is_err());
        let vals: Vec<f32> = (0..40).map(|v| v as f32).collect();
        assert_eq!(BinnedFeature::from_column(&vals, MAX_BINS).n_bins(), 40);
        let many: Vec<f32> = (0..1000).map(|v| v as f32).collect();
        assert_eq!(BinnedFeature::from_column(&many, MAX_BINS).n_bins(), MAX_BINS);
    }

    #[test]
    #[should_panic(expected = "slot codes must fit in u8")]
    fn binning_rejects_bin_counts_above_the_bound() {
        BinnedFeature::from_column(&[1.0, 2.0], MAX_BINS + 1);
    }

    #[test]
    fn stump_scores_respect_threshold_and_missing() {
        let s = Stump { feature: 0, threshold: 2.0, s_le: -0.5, s_gt: 0.7 };
        assert_eq!(s.score(&[1.0]), -0.5);
        assert_eq!(s.score(&[2.0]), -0.5); // equal goes left
        assert_eq!(s.score(&[2.5]), 0.7);
        assert_eq!(s.score(&[f32::NAN]), 0.0); // abstain
    }

    #[test]
    fn search_finds_perfect_split() {
        // Feature separates the classes perfectly at 2.5.
        let x = matrix(vec![("f", vec![1.0, 2.0, 3.0, 4.0])]);
        let binned = BinnedDataset::from_matrix(&x, 16);
        let labels = [false, false, true, true];
        let w = [0.25; 4];
        let res = best_stump(&binned, &[0], &labels, &w, 1e-6).expect("split exists");
        assert!(res.stump.threshold >= 2.0 && res.stump.threshold < 3.0);
        assert!(res.stump.s_le < 0.0, "left block is negative class");
        assert!(res.stump.s_gt > 0.0, "right block is positive class");
        assert!(res.z < 0.1, "perfect split should drive Z near zero, got {}", res.z);
    }

    #[test]
    fn search_prefers_informative_feature() {
        let x =
            matrix(vec![("noise", vec![1.0, 2.0, 1.0, 2.0]), ("signal", vec![0.0, 0.0, 9.0, 9.0])]);
        let binned = BinnedDataset::from_matrix(&x, 16);
        let labels = [false, false, true, true];
        let w = [0.25; 4];
        let res = best_stump(&binned, &[0, 1], &labels, &w, 1e-6).expect("split exists");
        assert_eq!(res.stump.feature, 1);
    }

    #[test]
    fn search_handles_weights() {
        // With uniform weights the split at 1.5 misclassifies row 3; upweight
        // row 3 heavily and the optimum must keep it on the correct side.
        let x = matrix(vec![("f", vec![1.0, 2.0, 3.0, 4.0])]);
        let binned = BinnedDataset::from_matrix(&x, 16);
        let labels = [true, false, false, true];
        let w = [0.05, 0.05, 0.05, 0.85];
        let res = best_stump(&binned, &[0], &labels, &w, 1e-6).expect("split exists");
        // Row 3 (value 4.0, positive, dominant weight) must get a positive score.
        assert!(res.stump.score(&[4.0]) > 0.0);
    }

    #[test]
    fn missing_rows_contribute_abstention_weight_to_z() {
        let x = matrix(vec![("f", vec![1.0, 2.0, f32::NAN, f32::NAN])]);
        let binned = BinnedDataset::from_matrix(&x, 16);
        let labels = [false, true, true, false];
        let w = [0.25; 4];
        let res = best_stump(&binned, &[0], &labels, &w, 1e-9).expect("split exists");
        // The two present rows split perfectly (contribute ~0), the two
        // missing rows contribute their full weight 0.5.
        assert!((res.z - 0.5).abs() < 1e-6, "Z = {}", res.z);
    }

    #[test]
    fn no_split_on_constant_feature() {
        let x = matrix(vec![("f", vec![3.0, 3.0, 3.0])]);
        let binned = BinnedDataset::from_matrix(&x, 16);
        let labels = [true, false, true];
        let w = [1.0 / 3.0; 3];
        assert!(best_stump(&binned, &[0], &labels, &w, 1e-6).is_none());
    }
}
