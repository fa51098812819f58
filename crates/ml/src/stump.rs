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
/// extra bin, fits in a `u16`.
pub const MAX_BINS: usize = (u16::MAX as usize) / 2 - 1;

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
    /// `2·k + 1` histogram slots of a `k`-bin column with `u16` slot
    /// codes, and a column gets at most `n_bins + 1` bins.
    pub fn from_column(values: &[f32], n_bins: usize) -> Self {
        assert!(n_bins >= 2, "need at least 2 bins");
        assert!(
            n_bins <= MAX_BINS,
            "bin count {n_bins} above {MAX_BINS}: slot codes must fit in u16"
        );
        let mut present: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if present.is_empty() {
            return Self { edges: vec![0.0], bin_of_row: vec![MISSING_BIN; values.len()] };
        }
        present.sort_by(f32::total_cmp);

        // Quantile cut points; dedup keeps edges strictly increasing.
        let mut edges: Vec<f32> = Vec::with_capacity(n_bins);
        for b in 1..=n_bins {
            let pos = (b * present.len()) / n_bins;
            let idx = pos.saturating_sub(1).min(present.len() - 1);
            let e = present[idx];
            if edges.last().map_or(true, |&last| e > last) {
                edges.push(e);
            }
        }
        // Make sure the last edge covers the maximum value.
        // lint:allow(no-panic-in-lib) -- the is_empty early-return above guarantees a last element
        let max = *present.last().expect("non-empty");
        // lint:allow(no-panic-in-lib) -- the quantile loop always pushes at least one edge
        if *edges.last().expect("at least one edge") < max {
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
    /// Quantizes every column of a feature matrix.
    pub fn from_matrix(x: &FeatureMatrix, n_bins: usize) -> Self {
        Self { n_rows: x.n_rows(), features: binned_columns(x, n_bins).collect() }
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

/// Quantizes the columns of `x` one at a time, in column order, for
/// callers that need each binned column only briefly.
pub(crate) fn binned_columns(
    x: &FeatureMatrix,
    n_bins: usize,
) -> impl Iterator<Item = BinnedFeature> + '_ {
    (0..x.n_cols()).map(move |c| {
        let col: Vec<f32> = x.column(c).collect();
        BinnedFeature::from_column(&col, n_bins)
    })
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
    fn bin_count_bound_keeps_slot_codes_in_u16() {
        // A column gets at most `n_bins + 1` bins; its top slot code,
        // `2·bins`, fits in u16 at the bound and would not one above it.
        assert_eq!(u16::try_from(2 * (MAX_BINS + 1)), Ok(u16::MAX - 1));
        assert!(u16::try_from(2 * (MAX_BINS + 2)).is_err());
        let vals: Vec<f32> = (0..40).map(|v| v as f32).collect();
        assert_eq!(BinnedFeature::from_column(&vals, MAX_BINS).n_bins(), 40);
        assert_eq!(BinnedFeature::from_column(&vals, 256).n_bins(), 40);
    }

    #[test]
    #[should_panic(expected = "slot codes must fit in u16")]
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
